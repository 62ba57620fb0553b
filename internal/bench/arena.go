package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/protocols"
)

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
		VerifyLanes:    asyncVerifyWorkers,
	}
}

// Arena runs the cross-protocol benchmark arena: all five protocols on
// identical single-region netsim topologies — same clients, same cost
// model, same request authentication burden — so the numbers compare
// protocol overheads rather than deployment accidents. It renders the
// comparative table to w and returns the points in line-up order for
// benchmark gating.
func Arena(w io.Writer, sc Scale) []Point {
	clients := sc.clientCounts()[len(sc.clientCounts())-1]
	return arena(w, clients, sc.warmup(), sc.measure())
}

// arena is the scale-free core of Arena, split out so tests can render
// the table at a load small enough for unit-test budgets.
func arena(w io.Writer, clients int, warmup, measure time.Duration) []Point {
	points := make([]Point, 0, len(arenaProtocols))
	for _, p := range arenaProtocols {
		points = append(points, RunPoint(ArenaSpec(p, clients, 23), microOp(1024), warmup, measure))
	}
	fmt.Fprintf(w, "Cross-protocol arena: 1/0 benchmark, t=1, %d clients, co-located replicas, signed requests, modern cost model (%d verify workers)\n",
		clients, asyncVerifyWorkers)
	fmt.Fprintf(w, "%-9s %-9s %-18s %-12s %-10s %-10s %-10s\n",
		"protocol", "replicas", "throughput(kops/s)", "latency(ms)", "cpu(%)", "verifies", "batched")
	for _, ap := range points {
		fmt.Fprintf(w, "%-9s %-9d %-18.2f %-12.1f %-10.1f %-10d %-10d\n",
			ap.Protocol, ap.Protocol.Replicas(1), ap.ThroughputKops, ap.LatencyMs, ap.PrimaryCPU*100, ap.Verifies, ap.BatchedVerifies)
	}
	return points
}
