package bench

import (
	"fmt"
	"time"

	"github.com/xft-consensus/xft/internal/apps/zk"
)

// Point is one measurement of a latency/throughput sweep.
type Point struct {
	Protocol       Protocol
	Clients        int
	ThroughputKops float64 // committed requests per second ÷ 1000
	LatencyMs      float64 // mean request latency in the window
	// PrimaryCPU is the fraction of the measurement window the most
	// loaded node's simulated CPU was busy (Figure 8's metric).
	PrimaryCPU float64
	// Verifies and BatchedVerifies are summed over all replicas for the
	// whole run. BatchedVerifies > 0 is the arena's acceptance signal:
	// client-signature verification went through the deferred pool's
	// batch path, not the serial Step-loop fallback.
	Verifies        uint64
	BatchedVerifies uint64
}

// opMaker builds the operation each client submits; index i
// distinguishes clients.
type opMaker func(clientIdx, seq int) []byte

// microOp returns the microbenchmark payload of the given size.
func microOp(size int) opMaker {
	return func(ci, seq int) []byte { return make([]byte, size) }
}

// zkWriteOp returns 1 kB ZooKeeper SetData operations, each client
// writing its own znode (Section 5.5). The client's first operation
// creates the znode, so no serialized setup phase precedes the run.
func zkWriteOp(size int) opMaker {
	data := make([]byte, size)
	return func(ci, seq int) []byte {
		path := fmt.Sprintf("/bench-c%d", ci)
		if seq == 0 {
			return zk.CreateOp(path, data, zk.ModePersistent)
		}
		return zk.SetOp(path, data, -1)
	}
}

// RunPoint runs a closed-loop load on a freshly built cluster and
// measures throughput and latency inside [warmup, warmup+measure),
// plus the replicas' crypto counters over the whole run.
func RunPoint(spec Spec, mkOp opMaker, warmup, measure time.Duration) Point {
	c := Build(spec)
	var (
		committed uint64
		latSum    time.Duration
	)
	winStart, winEnd := warmup, warmup+measure
	for ci := 0; ci < c.NumClients(); ci++ {
		ci := ci
		seq := 0
		c.SetOnCommit(ci, func(op, rep []byte, lat time.Duration) {
			now := c.Net.Now()
			if now >= winStart && now < winEnd {
				committed++
				latSum += lat
			}
			seq++
			c.Invoke(ci, mkOp(ci, seq))
		})
	}
	c.Net.At(0, func() {
		for ci := 0; ci < c.NumClients(); ci++ {
			c.Invoke(ci, mkOp(ci, 0))
		}
	})

	// Sample the primary's CPU busy time at the window edges.
	var busyStart, busyEnd time.Duration
	c.Net.At(winStart, func() { busyStart = c.Net.Stats(c.Primary).CPUBusy })
	c.Net.At(winEnd, func() { busyEnd = c.Net.Stats(c.Primary).CPUBusy })

	c.Net.RunUntil(winEnd + 10*time.Millisecond)

	p := Point{Protocol: spec.Protocol, Clients: spec.Clients}
	secs := measure.Seconds()
	p.ThroughputKops = float64(committed) / secs / 1000
	if committed > 0 {
		p.LatencyMs = float64(latSum.Milliseconds()) / float64(committed)
	}
	p.PrimaryCPU = float64(busyEnd-busyStart) / float64(measure)
	for _, m := range c.Meters {
		counts := m.Total()
		p.Verifies += counts.Verifies
		p.BatchedVerifies += counts.BatchedVerifies
	}
	return p
}

// Sweep runs RunPoint across client counts.
func Sweep(base Spec, mkOp opMaker, clientCounts []int, warmup, measure time.Duration) []Point {
	out := make([]Point, 0, len(clientCounts))
	for _, nc := range clientCounts {
		spec := base
		spec.Clients = nc
		spec.Seed = base.Seed + int64(nc)
		out = append(out, RunPoint(spec, mkOp, warmup, measure))
	}
	return out
}

// FormatPoints renders a sweep as the rows of a Figure 7/10-style
// series.
func FormatPoints(points []Point) string {
	s := fmt.Sprintf("%-9s %-8s %-18s %-12s %-10s\n", "protocol", "clients", "throughput(kops/s)", "latency(ms)", "cpu(%)")
	for _, p := range points {
		s += fmt.Sprintf("%-9s %-8d %-18.2f %-12.1f %-10.1f\n",
			p.Protocol, p.Clients, p.ThroughputKops, p.LatencyMs, p.PrimaryCPU*100)
	}
	return s
}
