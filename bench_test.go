package xft

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its experiment at
// "quick" scale (CI-sized; see internal/bench.Scale) and reports the
// headline numbers as custom metrics. Full-scale sweeps run through
// cmd/xft-bench.
//
// Run everything with:
//
//	go test -bench=. -benchmem -benchtime=1x

import (
	"bytes"
	"strings"
	"testing"

	"github.com/xft-consensus/xft/internal/bench"
	"github.com/xft-consensus/xft/internal/model"
)

var quick = bench.Scale{Quick: true}

// reportPeak reports a series' highest throughput.
func reportPeak(b *testing.B, points []bench.Point) {
	var peak float64
	for _, p := range points {
		peak = max(peak, p.ThroughputKops)
	}
	b.ReportMetric(peak, "peak-kops/s")
}

// BenchmarkFig7a regenerates Figure 7a: 1/0 microbenchmark, t = 1.
func BenchmarkFig7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		points := bench.Fig7(&buf, "a", quick)
		b.Log("\n" + buf.String())
		reportPeak(b, points)
	}
}

// BenchmarkFig7b regenerates Figure 7b: 4/0 microbenchmark, t = 1.
func BenchmarkFig7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		points := bench.Fig7(&buf, "b", quick)
		b.Log("\n" + buf.String())
		reportPeak(b, points)
	}
}

// BenchmarkFig7c regenerates Figure 7c: 1/0 microbenchmark, t = 2.
func BenchmarkFig7c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		points := bench.Fig7(&buf, "c", quick)
		b.Log("\n" + buf.String())
		reportPeak(b, points)
	}
}

// BenchmarkFig8 regenerates Figure 8: CPU usage vs throughput.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Fig8(&buf, quick)
		b.Log("\n" + buf.String())
	}
}

// BenchmarkFig9 regenerates Figure 9: XPaxos under faults.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Fig9(&buf, quick)
		b.Log("\n" + buf.String())
	}
}

// BenchmarkFig10 regenerates Figure 10: the ZooKeeper macro-benchmark.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		points := bench.Fig10(&buf, quick)
		b.Log("\n" + buf.String())
		reportPeak(b, points)
	}
}

// BenchmarkTable1 regenerates Table 1 (guarantee matrix).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Table1(&buf)
		b.Log("\n" + buf.String())
	}
}

// BenchmarkTable2 regenerates Table 2 (synchronous groups).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Table2(&buf)
		b.Log("\n" + buf.String())
	}
}

// BenchmarkTable3 regenerates Table 3 (EC2 RTT quantiles).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Table3Report(&buf, quick)
		b.Log("\n" + buf.String())
	}
}

// BenchmarkTables5to8 regenerates the Appendix D reliability tables.
func BenchmarkTables5to8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.Tables5to8(&buf)
		b.Log("\n" + buf.String())
	}
}

// BenchmarkFig2and6Patterns regenerates the message-pattern counts of
// Figures 2 and 6.
func BenchmarkFig2and6Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bench.PatternReport(&buf)
		b.Log("\n" + buf.String())
	}
}

// BenchmarkReliabilityXFTConsistency measures the analytical pipeline
// itself (big.Float triple sum).
func BenchmarkReliabilityXFTConsistency(b *testing.B) {
	p := model.FromNines(5, 4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model.ConsistencyXFT(2, p)
	}
}

// BenchmarkPipelineSimWAN measures XPaxos common-case throughput at
// n=3 on the deterministic simulated WAN (paper latencies, modeled
// RSA-1024/HMAC CPU costs) with the lock-step window (PipelineWindow=1)
// versus the pipelined default. The simulator charges crypto to
// per-node CPU queues and models link latency, so this captures the
// architectural speedup independent of the host's core count.
func BenchmarkPipelineSimWAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		lockstep, pipelined := bench.PipelineComparison(&buf, quick)
		b.Log("\n" + buf.String())
		b.ReportMetric(lockstep.ThroughputKops, "lockstep-kops/s")
		b.ReportMetric(pipelined.ThroughputKops, "pipelined-kops/s")
		if lockstep.ThroughputKops > 0 {
			b.ReportMetric(pipelined.ThroughputKops/lockstep.ThroughputKops, "speedup-x")
		}
	}
}

// BenchmarkArenaSim runs the cross-protocol benchmark arena: all five
// protocols on identical co-located netsim topologies with signed
// client requests and the modern cost model, reporting each protocol's
// virtual-time throughput as its own metric. The numbers are
// reproducible across hosts, so CI gates the baselines' ratios to
// XPaxos (cmd/benchdiff ratio) rather than absolute wall-clock speed.
func BenchmarkArenaSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		points := bench.Arena(&buf, quick)
		b.Log("\n" + buf.String())
		for _, ap := range points {
			if ap.BatchedVerifies == 0 {
				b.Fatalf("%s: no batched verifies — the deferred verify pipeline never engaged", ap.Protocol)
			}
			name := strings.ToLower(string(ap.Protocol))
			b.ReportMetric(ap.ThroughputKops, name+"-kops/s")
			b.ReportMetric(ap.LatencyMs, name+"-lat-ms")
		}
	}
}

// BenchmarkDurability measures what group commit buys the write-ahead
// log on this host's real storage stack: a sync per appended record
// versus one sync per pipeline-depth batch (32), as the replica's WAL
// writer batches when the commit pipeline keeps records arriving, plus
// the same group run with full fsync forced so the fdatasync fast
// path's saving is visible as fullsync-ns/rec − group-ns/rec. CI gates
// per-entry-ns/rec ÷ group-ns/rec ≥ 2 (the durability acceptance
// criterion); the absolute numbers are host-dependent and soft.
func BenchmarkDurability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		perEntry, group, fullSync, err := bench.DurabilityComparison(&buf, quick)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + buf.String())
		b.ReportMetric(perEntry, "per-entry-ns/rec")
		b.ReportMetric(group, "group-ns/rec")
		b.ReportMetric(fullSync, "fullsync-ns/rec")
		if group > 0 {
			b.ReportMetric(perEntry/group, "amortize-x")
		}
	}
}
