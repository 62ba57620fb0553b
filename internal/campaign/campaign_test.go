package campaign

import (
	"strings"
	"testing"
	"time"
)

// quick returns a small-but-real configuration for PR-gate testing.
func quick(p Profile, seed int64) Config {
	return Config{
		Profile: p,
		Seed:    seed,
		T:       1,
		Clients: 20,
		Horizon: 6 * time.Second,
		Quiesce: 5 * time.Second,
	}
}

// TestCampaignDeterminism runs the same seeded campaign twice and
// requires bit-identical event traces and verdicts: the whole
// seed-and-repro workflow (nightly soak artifact -> local replay)
// depends on it.
func TestCampaignDeterminism(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := quick(p, 42)
			a := Run(cfg)
			b := Run(cfg)
			if a.TraceDigest != b.TraceDigest {
				la, lb := a.Trace.lines, b.Trace.lines
				for i := 0; i < len(la) && i < len(lb); i++ {
					if la[i] != lb[i] {
						t.Fatalf("traces diverge at line %d:\n  run1: %s\n  run2: %s", i, la[i], lb[i])
					}
				}
				t.Fatalf("trace digests differ (%d vs %d lines): %s vs %s",
					len(la), len(lb), a.TraceDigest, b.TraceDigest)
			}
			if a.OK() != b.OK() || len(a.Violations) != len(b.Violations) {
				t.Fatalf("verdicts differ: %v vs %v", a.Violations, b.Violations)
			}
			if !a.OK() {
				t.Fatalf("campaign failed (seed %d): %v\nrepro: %s", cfg.Seed, a.Violations, a.Repro)
			}
			if a.Acked == 0 {
				t.Fatalf("no client request was ever acknowledged")
			}
			if a.FaultActions <= 1 {
				t.Fatalf("schedule generated no faults (%d actions)", a.FaultActions)
			}
		})
	}
}

// TestCampaignTraceGolden pins the full trace digest of two runs that
// pass and go through view changes. The digest covers every fault,
// view change and final replica state, so any change to the protocol's
// or the simulator's event order moves it. A refactor that claims
// identical behaviour keeps both; a change that moves one must say why
// from the trace (xft-bench campaign -v prints it).
func TestCampaignTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg         Config
		viewChanges uint64
		digest      string
	}{
		{
			cfg:         Config{Profile: CrashStorm, Seed: 18, Clients: 50, Horizon: 4 * time.Second},
			viewChanges: 3,
			digest:      "069cee9e6ccd8fec0ce51d050263f1c7695401f7f61b7d53f4ff40830b4d9429",
		},
		{
			cfg:         Config{Profile: ByzantineMix, Seed: 1, T: 2, Clients: 50, Horizon: 20 * time.Second},
			viewChanges: 52,
			digest:      "d9d7ee99fd310af4a39f051c2d4d6da76fe9c30e86e346957017617683b066ee",
		},
	} {
		t.Run(string(tc.cfg.Profile), func(t *testing.T) {
			res := Run(tc.cfg)
			if !res.OK() {
				t.Fatalf("campaign failed: %v\nrepro: %s", res.Violations, res.Repro)
			}
			if res.ViewChanges != tc.viewChanges || res.TraceDigest != tc.digest {
				t.Fatalf("view changes %d, trace %s; want %d, %s\nrepro: %s",
					res.ViewChanges, res.TraceDigest, tc.viewChanges, tc.digest, res.Repro)
			}
		})
	}
}

// TestCampaignSeedsChangeSchedule guards against the seed being
// ignored: different seeds must produce different fault timelines.
func TestCampaignSeedsChangeSchedule(t *testing.T) {
	a := Run(quick(CrashStorm, 1))
	b := Run(quick(CrashStorm, 2))
	if a.TraceDigest == b.TraceDigest {
		t.Fatalf("seeds 1 and 2 produced identical traces")
	}
}

// TestCampaignForkDetected injects a silently-corrupted application on
// one replica — never registered as faulty anywhere — and requires the
// safety checker to catch the divergence blind and hand back the seed
// and a one-line repro that carries the injection flag.
func TestCampaignForkDetected(t *testing.T) {
	cfg := quick(CrashStorm, 7)
	cfg.InjectFork = true
	res := Run(cfg)
	if res.OK() {
		t.Fatalf("forked replica not detected; trace digest %s", res.TraceDigest)
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == "state-divergence" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a state-divergence violation, got %v", res.Violations)
	}
	for _, want := range []string{"campaign", "-seed 7", "-inject-fork", "-profile crash-storm"} {
		if !strings.Contains(res.Repro, want) {
			t.Fatalf("repro line %q missing %q", res.Repro, want)
		}
	}
	// And with the ZooKeeper application too: the poison path must
	// surface through tree comparison.
	zcfg := quick(KitchenSink, 7)
	zcfg.InjectFork = true
	zres := Run(zcfg)
	if zres.OK() {
		t.Fatalf("forked zk replica not detected")
	}
}

// TestCampaignZKSessionOrder runs unpipelined ZooKeeper clients
// (window 1) through the kitchen-sink storm: with one op in flight at a
// time the strict session guarantee applies — every client's sequential
// suffixes must come back in issue order — and the campaign asserts it.
func TestCampaignZKSessionOrder(t *testing.T) {
	cfg := quick(KitchenSink, 42)
	cfg.App = AppZK
	cfg.ClientWindow = 1
	res := Run(cfg)
	if !res.OK() {
		t.Fatalf("window-1 zk campaign violated invariants: %v\nrepro: %s", res.Violations, res.Repro)
	}
	if res.Acked == 0 {
		t.Fatalf("no create acknowledged")
	}
}

// TestCampaignAvailabilityCrossCheck: the crash-storm profile asserts
// measured availability against the analytic model internally; here we
// also sanity-check the reported numbers are in range and the check
// actually ran.
func TestCampaignAvailabilityCrossCheck(t *testing.T) {
	cfg := quick(CrashStorm, 11)
	cfg.Horizon = 12 * time.Second
	res := Run(cfg)
	if !res.OK() {
		t.Fatalf("crash storm violated invariants: %v\nrepro: %s", res.Violations, res.Repro)
	}
	if !res.AvailChecked {
		t.Fatalf("availability cross-check did not run")
	}
	if res.MeasuredAvail <= 0 || res.MeasuredAvail > 1 || res.AnalyticAvail <= 0 || res.AnalyticAvail > 1 {
		t.Fatalf("availability out of range: measured=%v analytic=%v", res.MeasuredAvail, res.AnalyticAvail)
	}
}

func TestParseProfile(t *testing.T) {
	if _, err := ParseProfile("crash-storm"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseProfile("nonsense"); err == nil {
		t.Fatal("bad profile accepted")
	}
}
