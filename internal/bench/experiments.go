package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/model"
	"github.com/xft-consensus/xft/internal/netsim"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// cores models the paper's 8-vCPU instances: cryptographic work
// parallelizes across cores, and Figure 8 reports CPU usage in
// percent-of-one-core units (up to 800%).
const cores = 8

// costModel returns the per-core cost model.
func costModel() crypto.CostModel {
	cm := crypto.DefaultCostModel()
	cm.SignCost /= cores
	cm.VerifyCost /= cores
	cm.MACCost /= cores
	cm.DigestCost /= cores
	cm.PerByteCost /= cores
	cm.DispatchCost /= cores
	return cm
}

// Quick controls experiment scale: true gives CI-sized runs (seconds);
// false reproduces the full curves (minutes).
type Scale struct {
	Quick bool
}

func (s Scale) clientCounts() []int {
	if s.Quick {
		return []int{1, 50, 200, 600}
	}
	return []int{1, 25, 100, 250, 500, 1000, 1750, 2500}
}

func (s Scale) egressMBps() float64 {
	if s.Quick {
		return 3 // saturate with fewer simulated clients
	}
	return 30
}

func (s Scale) warmup() time.Duration {
	if s.Quick {
		return 1500 * time.Millisecond
	}
	return 3 * time.Second
}

func (s Scale) measure() time.Duration {
	if s.Quick {
		return 3 * time.Second
	}
	return 10 * time.Second
}

// Fig7 reproduces Figure 7: latency vs throughput for XPaxos, Paxos,
// PBFT and Zyzzyva. Variant "a" is the 1/0 benchmark at t=1, "b" the
// 4/0 benchmark at t=1, "c" the 1/0 benchmark at t=2. It renders the
// series to w and returns every point, protocol by protocol.
func Fig7(w io.Writer, variant string, sc Scale) []Point {
	t := 1
	reqSize := 1024
	switch variant {
	case "b":
		reqSize = 4096
	case "c":
		t = 2
	}
	fmt.Fprintf(w, "Figure 7%s: %d/0 microbenchmark, t=%d (latency vs throughput)\n", variant, reqSize/1024, t)
	var all []Point
	for _, proto := range AllProtocols {
		spec := Spec{
			Protocol: proto, T: t, App: NullApp,
			ReqSize: reqSize, EgressMBps: sc.egressMBps(), Seed: 42,
		}
		points := Sweep(spec, microOp(reqSize), sc.clientCounts(), sc.warmup(), sc.measure())
		fmt.Fprint(w, FormatPoints(points))
		all = append(all, points...)
	}
	return all
}

// PipelineComparison measures the common-case throughput of XPaxos at
// n=3 on the simulated WAN with the lock-step window (PipelineWindow=1,
// one batch must commit before the next is proposed) versus the
// pipelined default. It returns both points so benchmarks can report
// the speedup, and renders them to w.
func PipelineComparison(w io.Writer, sc Scale) (lockstep, pipelined Point) {
	clients := sc.clientCounts()[len(sc.clientCounts())-1]
	base := Spec{
		Protocol: XPaxos, T: 1, App: NullApp, ReqSize: 1024,
		Clients: clients, EgressMBps: sc.egressMBps(), Seed: 7,
	}
	lockSpec := base
	lockSpec.PipelineWindow = 1
	lockstep = RunPoint(lockSpec, microOp(base.ReqSize), sc.warmup(), sc.measure())
	pipelined = RunPoint(base, microOp(base.ReqSize), sc.warmup(), sc.measure())
	fmt.Fprintf(w, "XPaxos common case, n=3, %d clients, 1/0 benchmark\n", clients)
	fmt.Fprintf(w, "lock-step (window=1): %7.2f kops/s  latency %6.1f ms\n",
		lockstep.ThroughputKops, lockstep.LatencyMs)
	fmt.Fprintf(w, "pipelined (default):  %7.2f kops/s  latency %6.1f ms\n",
		pipelined.ThroughputKops, pipelined.LatencyMs)
	if lockstep.ThroughputKops > 0 {
		fmt.Fprintf(w, "speedup: %.2fx\n", pipelined.ThroughputKops/lockstep.ThroughputKops)
	}
	return lockstep, pipelined
}

// Fig8 reproduces Figure 8: CPU usage at the most loaded node (the
// primary) versus throughput, for the 1/0 and 4/0 benchmarks at peak
// load.
func Fig8(w io.Writer, sc Scale) {
	fmt.Fprintln(w, "Figure 8: CPU usage (percent of one core; 8-core nodes) at peak throughput")
	peak := sc.clientCounts()[len(sc.clientCounts())-1]
	for _, bench := range []int{1024, 4096} {
		fmt.Fprintf(w, "--- %d/0 benchmark ---\n", bench/1024)
		for _, proto := range AllProtocols {
			spec := Spec{Protocol: proto, T: 1, App: NullApp, ReqSize: bench,
				EgressMBps: sc.egressMBps(), Clients: peak, Seed: 99}
			p := RunPoint(spec, microOp(bench), sc.warmup(), sc.measure())
			fmt.Fprintf(w, "%-9s throughput=%7.2f kops/s  cpu=%6.1f%%\n",
				proto, p.ThroughputKops, p.PrimaryCPU*100*cores)
		}
	}
}

// Fig9 reproduces Figure 9: XPaxos throughput under a sequence of
// crashes with recovery, showing sub-10-second view changes. The
// timeline is compressed (the paper crashes at 180/300/420 s with 20 s
// recoveries; we crash at 60/130/200 s of a 260 s run to keep the
// simulation small — Δ and all protocol timeouts are unchanged, so
// view-change durations are directly comparable).
func Fig9(w io.Writer, sc Scale) {
	clients := 300
	if sc.Quick {
		clients = 100
	}
	spec := Spec{Protocol: XPaxos, T: 1, App: NullApp, ReqSize: 1024,
		EgressMBps: sc.egressMBps(), Clients: clients, Seed: 7}
	c := Build(spec)

	total := 300 * time.Second
	buckets := make([]uint64, int(total/time.Second)+1)
	for ci := 0; ci < c.NumClients(); ci++ {
		ci := ci
		c.SetOnCommit(ci, func(op, rep []byte, lat time.Duration) {
			sec := int(c.Net.Now() / time.Second)
			if sec >= 0 && sec < len(buckets) {
				buckets[sec]++
			}
			c.Invoke(ci, make([]byte, 1024))
		})
	}
	c.Net.At(0, func() {
		for ci := 0; ci < c.NumClients(); ci++ {
			c.Invoke(ci, make([]byte, 1024))
		}
	})
	// Fault schedule: follower VA, then primary CA, then JP (paper's
	// order), each recovering 20 s later.
	schedule := []struct {
		at      time.Duration
		replica smr.NodeID
	}{
		{60 * time.Second, 1},  // VA (follower of view 0)
		{130 * time.Second, 0}, // CA (primary)
		{200 * time.Second, 2}, // JP
	}
	for _, ev := range schedule {
		ev := ev
		c.Net.At(ev.at, func() { c.Net.Crash(ev.replica) })
		c.Net.At(ev.at+20*time.Second, func() { c.Net.Recover(ev.replica) })
	}
	c.Net.RunUntil(total)

	fmt.Fprintln(w, "Figure 9: XPaxos under faults (throughput per second; crashes at 60s/130s/200s, 20s recovery)")
	// Report per-5s buckets to keep the series compact, plus gap
	// analysis: the longest zero-throughput stretch after each crash.
	for sec := 0; sec < len(buckets)-1; sec += 5 {
		var sum uint64
		for k := sec; k < sec+5 && k < len(buckets); k++ {
			sum += buckets[k]
		}
		fmt.Fprintf(w, "t=%3ds  %8.2f kops/s\n", sec, float64(sum)/5/1000)
	}
	for _, ev := range schedule {
		gap := 0
		start := int(ev.at/time.Second) + 1
		for sec := start; sec < len(buckets); sec++ {
			if buckets[sec] == 0 {
				gap++
			} else {
				break
			}
		}
		fmt.Fprintf(w, "crash at %3ds: service interruption ≈ %ds (paper: < 10 s)\n", int(ev.at/time.Second), gap)
	}
}

// Fig10 reproduces Figure 10: the ZooKeeper macro-benchmark — 1 kB
// writes against the zk store replicated with each protocol, Zab
// included. It renders the series to w and returns every point.
func Fig10(w io.Writer, sc Scale) []Point {
	fmt.Fprintln(w, "Figure 10: ZooKeeper macro-benchmark (1 kB writes, t=1)")
	protos := append(append([]Protocol{}, AllProtocols...), Zab)
	var all []Point
	for _, proto := range protos {
		spec := Spec{Protocol: proto, T: 1, App: ZKApp, ReqSize: 1024,
			EgressMBps: sc.egressMBps(), Seed: 10}
		points := Sweep(spec, zkWriteOp(1024), sc.clientCounts(), sc.warmup(), sc.measure())
		fmt.Fprint(w, FormatPoints(points))
		all = append(all, points...)
	}
	return all
}

// Table1 prints the fault-tolerance guarantee matrix.
func Table1(w io.Writer) {
	fmt.Fprint(w, model.FormatTable1(3))
	fmt.Fprintln(w)
	fmt.Fprint(w, model.FormatTable1(5))
}

// Table2 prints the synchronous-group rotation for t=1.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: synchronous group combinations (t = 1)")
	fmt.Fprintf(w, "%-6s %-10s %-10s %-10s\n", "view", "primary", "follower", "passive")
	for v := smr.View(0); v < 6; v++ {
		g := xpaxos.SyncGroup(3, 1, v)
		p := xpaxos.Passive(3, 1, v)
		fmt.Fprintf(w, "%-6d s%-9d s%-9d s%-9d\n", v, g[0], g[1], p[0])
	}
}

// Table3Report regenerates Table 3 by sampling the WAN model's RTT
// distributions (tails enabled) and prints avg/99.99%/99.999%/max per
// measured region pair, plus the derived Δ.
func Table3Report(w io.Writer, sc Scale) {
	samples := 2_000_000
	if sc.Quick {
		samples = 300_000
	}
	wan := EC2Model(map[smr.NodeID]int{}, true)
	net := netsim.New(netsim.Config{Seed: 123})
	fmt.Fprintf(w, "Table 3: simulated RTTs across EC2 regions (ms, avg / 99.99%% / 99.999%% / max; %d pings per pair)\n", samples)
	var pairs [][2]int // ascending, so each pair is printed once
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	for _, pr := range pairs {
		avg, q1, q2, peak := wan.MeasureRTTQuantiles(net.Rand(), pr[0], pr[1], samples)
		ref := Table3[[2]int{min(pr[0], pr[1]), max(pr[0], pr[1])}]
		if ref.AvgRTT == 0 {
			ref = Table3[[2]int{max(pr[0], pr[1]), min(pr[0], pr[1])}]
		}
		fmt.Fprintf(w, "%-14s - %-14s  %5d / %5d / %6d / %6d   (paper: %d / %d / %d / %d)\n",
			RegionNames[pr[0]], RegionNames[pr[1]],
			avg.Milliseconds(), q1.Milliseconds(), q2.Milliseconds(), peak.Milliseconds(),
			ref.AvgRTT.Milliseconds(), ref.P9999.Milliseconds(), ref.P99999.Milliseconds(), ref.MaxRTT.Milliseconds())
	}
	fmt.Fprintf(w, "derived Δ = %v (paper: 1.25s)\n", DeltaFromTable3())
}

// Tables5to8 prints the Appendix D reliability tables.
func Tables5to8(w io.Writer) {
	fmt.Fprint(w, model.ConsistencyTable(1))
	fmt.Fprintln(w)
	fmt.Fprint(w, model.ConsistencyTable(2))
	fmt.Fprintln(w)
	fmt.Fprint(w, model.AvailabilityTable(1))
	fmt.Fprintln(w)
	fmt.Fprint(w, model.AvailabilityTable(2))
	fmt.Fprintln(w)
	fmt.Fprint(w, model.FormatExamples())
}

// PatternReport prints the common-case message counts per protocol for
// a single unbatched request (Figures 2 and 6).
func PatternReport(w io.Writer) {
	fmt.Fprintln(w, "Figures 2 & 6: common-case message counts for one request (t = 1, batching off)")
	protos := append(append([]Protocol{}, AllProtocols...), Zab)
	for _, proto := range protos {
		counts := patternCounts(proto)
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "%-9s ", proto)
		for _, k := range keys {
			fmt.Fprintf(w, "%s=%d ", k, counts[k])
		}
		fmt.Fprintln(w)
	}
}

// patternCounts runs one request to completion and returns the message
// counts by type (excluding lazy replication, which is asynchronous
// background traffic).
func patternCounts(proto Protocol) map[string]uint64 {
	spec := Spec{Protocol: proto, T: 1, App: NullApp, ReqSize: 16, BatchSize: 1, Seed: 3}
	c := Build(spec)
	done := false
	c.SetOnCommit(0, func(op, rep []byte, lat time.Duration) { done = true })
	c.Net.At(0, func() { c.Invoke(0, kv.GetOp("x")) })
	for i := 0; i < 10000 && !done; i++ {
		if !c.Net.Step() {
			break
		}
	}
	return c.Net.MessageCounts()
}
