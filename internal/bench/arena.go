package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/protocols"
)

// ArenaPoint is one protocol's measurement in the cross-protocol
// arena: the usual throughput/latency point plus the crypto counters
// that prove the optimized smr stack was actually engaged.
type ArenaPoint struct {
	Point
	Replicas int
	// Verifies and BatchedVerifies are summed over all replicas for the
	// whole run. BatchedVerifies > 0 is the arena's acceptance signal:
	// client-signature verification went through the deferred pool's
	// batch path, not the serial Step-loop fallback.
	Verifies        uint64
	BatchedVerifies uint64
}

// asyncVerifyWorkers is the verification-pool width the arena models.
const asyncVerifyWorkers = 4

// arenaProtocols is the arena line-up: every row of the protocol
// table, XPaxos first.
var arenaProtocols = func() (ps []Protocol) {
	for _, p := range protocols.All {
		ps = append(ps, Protocol(p.Name))
	}
	return ps
}()

// ArenaSpec returns the deployment spec the arena runs protocol p
// under: identical co-located topology, modern crypto priced for a
// 4-way verify pool, and signed client requests on the baselines so
// every protocol pays for request authentication. Only the replica
// count differs, and only because the protocols' fault thresholds
// demand it (2t+1 vs 3t+1).
func ArenaSpec(p Protocol, clients int, seed int64) Spec {
	cm := crypto.CostModelModern(asyncVerifyWorkers)
	n := p.Replicas(1)
	regions := make([]int, n)
	for i := range regions {
		regions[i] = CA
	}
	return Spec{
		Protocol: p, T: 1, App: NullApp, ReqSize: 1024,
		Clients: clients, Seed: seed, CostModel: &cm,
		ReplicaRegions: regions,
		SignedRequests: true,
		VerifyWorkers:  asyncVerifyWorkers,
	}
}

// RunArenaPoint runs one protocol's arena measurement: a RunPoint-style
// closed loop plus the cluster's summed crypto counters.
func RunArenaPoint(spec Spec, warmup, measure time.Duration) ArenaPoint {
	c := Build(spec)
	var (
		committed uint64
		latSum    time.Duration
	)
	winStart, winEnd := warmup, warmup+measure
	for ci := 0; ci < c.NumClients(); ci++ {
		ci := ci
		c.SetOnCommit(ci, func(op, rep []byte, lat time.Duration) {
			now := c.Net.Now()
			if now >= winStart && now < winEnd {
				committed++
				latSum += lat
			}
			c.Invoke(ci, make([]byte, spec.ReqSize))
		})
	}
	c.Net.At(0, func() {
		for ci := 0; ci < c.NumClients(); ci++ {
			c.Invoke(ci, make([]byte, spec.ReqSize))
		}
	})
	var busyStart, busyEnd time.Duration
	c.Net.At(winStart, func() { busyStart = c.Net.Stats(c.Primary).CPUBusy })
	c.Net.At(winEnd, func() { busyEnd = c.Net.Stats(c.Primary).CPUBusy })
	c.Net.RunUntil(winEnd + 10*time.Millisecond)

	ap := ArenaPoint{
		Point:    Point{Protocol: spec.Protocol, Clients: spec.Clients},
		Replicas: spec.Protocol.Replicas(spec.T),
	}
	secs := measure.Seconds()
	ap.ThroughputKops = float64(committed) / secs / 1000
	if committed > 0 {
		ap.LatencyMs = float64(latSum.Milliseconds()) / float64(committed)
	}
	ap.PrimaryCPU = float64(busyEnd-busyStart) / float64(measure)
	for _, m := range c.Meters {
		counts := m.Total()
		ap.Verifies += counts.Verifies
		ap.BatchedVerifies += counts.BatchedVerifies
	}
	return ap
}

// Arena runs the cross-protocol benchmark arena: all five protocols on
// identical single-region netsim topologies — same clients, same cost
// model, same request authentication burden — so the numbers compare
// protocol overheads rather than deployment accidents. It renders the
// comparative table to w and returns the points in line-up order for
// benchmark gating.
func Arena(w io.Writer, sc Scale) []ArenaPoint {
	clients := sc.clientCounts()[len(sc.clientCounts())-1]
	return arena(w, clients, sc.warmup(), sc.measure())
}

// arena is the scale-free core of Arena, split out so tests can render
// the table at a load small enough for unit-test budgets.
func arena(w io.Writer, clients int, warmup, measure time.Duration) []ArenaPoint {
	points := make([]ArenaPoint, 0, len(arenaProtocols))
	for _, p := range arenaProtocols {
		points = append(points, RunArenaPoint(ArenaSpec(p, clients, 23), warmup, measure))
	}
	fmt.Fprintf(w, "Cross-protocol arena: 1/0 benchmark, t=1, %d clients, co-located replicas, signed requests, modern cost model (%d verify workers)\n",
		clients, asyncVerifyWorkers)
	fmt.Fprintf(w, "%-9s %-9s %-18s %-12s %-10s %-10s %-10s\n",
		"protocol", "replicas", "throughput(kops/s)", "latency(ms)", "cpu(%)", "verifies", "batched")
	for _, ap := range points {
		fmt.Fprintf(w, "%-9s %-9d %-18.2f %-12.1f %-10.1f %-10d %-10d\n",
			ap.Protocol, ap.Replicas, ap.ThroughputKops, ap.LatencyMs, ap.PrimaryCPU*100, ap.Verifies, ap.BatchedVerifies)
	}
	return points
}
