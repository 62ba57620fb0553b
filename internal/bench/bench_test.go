package bench

import (
	"strings"
	"testing"
	"time"
)

// TestAllProtocolsCommitUnderWANModel is the harness smoke test: every
// protocol commits requests on the Table 4 EC2 deployment.
func TestAllProtocolsCommitUnderWANModel(t *testing.T) {
	protos := append(append([]Protocol{}, AllProtocols...), Zab)
	for _, proto := range protos {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			spec := Spec{Protocol: proto, T: 1, App: NullApp, ReqSize: 1024, Clients: 4, Seed: 1}
			p := RunPoint(spec, microOp(1024), time.Second, 2*time.Second)
			if p.ThroughputKops <= 0 {
				t.Fatalf("%s: no throughput on WAN deployment", proto)
			}
			if p.LatencyMs <= 0 || p.LatencyMs > 2000 {
				t.Fatalf("%s: implausible latency %v ms", proto, p.LatencyMs)
			}
		})
	}
}

// TestLatencyOrderingMatchesFigure7 checks the latency shape at low
// load: XPaxos ≈ Paxos (one WAN round trip to the follower) and both
// clearly below PBFT and Zyzzyva (extra WAN hops / farther quorums).
func TestLatencyOrderingMatchesFigure7(t *testing.T) {
	lat := map[Protocol]float64{}
	for _, proto := range AllProtocols {
		spec := Spec{Protocol: proto, T: 1, App: NullApp, ReqSize: 1024, Clients: 4, Seed: 2}
		p := RunPoint(spec, microOp(1024), time.Second, 3*time.Second)
		lat[proto] = p.LatencyMs
	}
	if diff := lat[XPaxos] - lat[Paxos]; diff < -30 || diff > 30 {
		t.Errorf("XPaxos latency %0.f ms should be close to Paxos %0.f ms", lat[XPaxos], lat[Paxos])
	}
	if lat[PBFT] <= lat[XPaxos] {
		t.Errorf("PBFT latency %0.f ms should exceed XPaxos %0.f ms", lat[PBFT], lat[XPaxos])
	}
	if lat[Zyzzyva] <= lat[Paxos] {
		t.Errorf("Zyzzyva latency %0.f ms should exceed Paxos %0.f ms", lat[Zyzzyva], lat[Paxos])
	}
}

// TestThroughputShapeUnderBandwidth checks the Figure 7/10 throughput
// ordering at saturation with the leader's egress as bottleneck:
// XPaxos ≈ Paxos > PBFT > Zyzzyva, and XPaxos > Zab.
func TestThroughputShapeUnderBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep is slow")
	}
	tput := map[Protocol]float64{}
	protos := append(append([]Protocol{}, AllProtocols...), Zab)
	for _, proto := range protos {
		spec := Spec{Protocol: proto, T: 1, App: NullApp, ReqSize: 1024,
			EgressMBps: 2, Clients: 400, Seed: 3}
		p := RunPoint(spec, microOp(1024), 2*time.Second, 4*time.Second)
		tput[proto] = p.ThroughputKops
	}
	// XPaxos trails Paxos slightly (the t=1 reply carries the
	// follower's signed commit, ~350 B/request of primary egress that
	// Paxos does not pay); the paper reports a ~10% gap, our model a
	// ~30% one — explaining it is ROADMAP item 12.
	if tput[XPaxos] < 0.6*tput[Paxos] {
		t.Errorf("XPaxos throughput %.2f should be close to Paxos %.2f", tput[XPaxos], tput[Paxos])
	}
	if tput[PBFT] >= tput[XPaxos] {
		t.Errorf("PBFT %.2f should be below XPaxos %.2f (2 payload streams vs 1)", tput[PBFT], tput[XPaxos])
	}
	if tput[Zyzzyva] >= tput[PBFT]*1.2 {
		t.Errorf("Zyzzyva %.2f should not exceed PBFT %.2f (3 payload streams)", tput[Zyzzyva], tput[PBFT])
	}
	if tput[Zab] >= tput[XPaxos] {
		t.Errorf("Zab %.2f should be below XPaxos %.2f (Section 5.5)", tput[Zab], tput[XPaxos])
	}
}

// TestFig8CPUOrdering: XPaxos (signatures) uses more CPU than the
// MAC-based protocols at comparable load.
func TestFig8CPUOrdering(t *testing.T) {
	cpu := map[Protocol]float64{}
	for _, proto := range []Protocol{XPaxos, Paxos} {
		spec := Spec{Protocol: proto, T: 1, App: NullApp, ReqSize: 1024, Clients: 50, Seed: 4}
		p := RunPoint(spec, microOp(1024), time.Second, 3*time.Second)
		cpu[proto] = p.PrimaryCPU
	}
	if cpu[XPaxos] <= cpu[Paxos] {
		t.Errorf("XPaxos CPU %.4f should exceed Paxos %.4f (signatures vs MACs)", cpu[XPaxos], cpu[Paxos])
	}
}

func TestPatternReportListsAllProtocols(t *testing.T) {
	var sb strings.Builder
	PatternReport(&sb)
	out := sb.String()
	for _, proto := range []string{"XPaxos", "Paxos", "PBFT", "Zyzzyva", "Zab"} {
		if !strings.Contains(out, proto) {
			t.Errorf("pattern report missing %s:\n%s", proto, out)
		}
	}
}

func TestTable3ReportShape(t *testing.T) {
	var sb strings.Builder
	Table3Report(&sb, Scale{Quick: true})
	out := sb.String()
	if !strings.Contains(out, "US-East(VA)") || !strings.Contains(out, "derived Δ") {
		t.Fatalf("table 3 report malformed:\n%s", out)
	}
	if !strings.Contains(out, "1.25s") {
		t.Errorf("derived Δ should be 1.25s:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 17 {
		t.Errorf("expected 15 pairs + header + delta, got:\n%s", out)
	}
}

func TestDeltaFromTable3(t *testing.T) {
	if d := DeltaFromTable3(); d != 1250*time.Millisecond {
		t.Fatalf("Δ = %v, want 1.25s", d)
	}
}

func TestZKMacroWorkload(t *testing.T) {
	spec := Spec{Protocol: XPaxos, T: 1, App: ZKApp, ReqSize: 1024, Clients: 3, Seed: 5}
	p := RunPoint(spec, zkWriteOp(1024), time.Second, 2*time.Second)
	if p.ThroughputKops <= 0 {
		t.Fatalf("zk workload made no progress")
	}
}

func TestT2Deployment(t *testing.T) {
	for _, proto := range []Protocol{XPaxos, Paxos, PBFT} {
		spec := Spec{Protocol: proto, T: 2, App: NullApp, ReqSize: 1024, Clients: 3, Seed: 6}
		p := RunPoint(spec, microOp(1024), time.Second, 2*time.Second)
		if p.ThroughputKops <= 0 {
			t.Fatalf("%s made no progress at t=2", proto)
		}
	}
}
