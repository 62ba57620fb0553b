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

// TestCampaignMultiGroup drives the sharded deployment through the
// crash-storm and kitchen-sink profiles: every machine hosts one
// replica of each group behind a GroupMux, clients partition across
// groups, and all safety invariants must hold independently per group.
// Determinism must survive the extra multiplexing layer.
func TestCampaignMultiGroup(t *testing.T) {
	for _, p := range []Profile{CrashStorm, KitchenSink} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := quick(p, 42)
			cfg.Groups = 2
			a := Run(cfg)
			b := Run(cfg)
			if a.TraceDigest != b.TraceDigest {
				t.Fatalf("multi-group campaign not deterministic: %s vs %s", a.TraceDigest, b.TraceDigest)
			}
			if !a.OK() {
				t.Fatalf("multi-group campaign failed (seed %d): %v\nrepro: %s", cfg.Seed, a.Violations, a.Repro)
			}
			if a.Acked == 0 {
				t.Fatal("no client request acknowledged across either group")
			}
			if !strings.Contains(a.Repro, "-groups 2") {
				t.Fatalf("repro line %q missing -groups 2", a.Repro)
			}
			// Both groups must have seen real traffic: with clients
			// split round-robin, each group's acked share can't be zero
			// unless routing collapsed onto one shard.
			single := Run(quick(p, 42))
			if single.TraceDigest == a.TraceDigest {
				t.Fatal("groups=2 trace identical to groups=1; the group layer did nothing")
			}
		})
	}
}

// TestCampaignMultiGroupForkDetected: the fork is injected on one
// machine, which corrupts that machine's replica of every group — the
// per-group checkers must each catch the divergence blind.
func TestCampaignMultiGroupForkDetected(t *testing.T) {
	cfg := quick(CrashStorm, 7)
	cfg.Groups = 2
	cfg.InjectFork = true
	res := Run(cfg)
	if res.OK() {
		t.Fatalf("forked replica not detected in multi-group run; trace digest %s", res.TraceDigest)
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == "state-divergence" && strings.Contains(v.Detail, "group") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a group-tagged state-divergence violation, got %v", res.Violations)
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
