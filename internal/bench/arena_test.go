package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
)

// TestArenaAllProtocolsEngageBatchVerification is the arena acceptance
// check at unit-test scale: every protocol commits on the shared
// topology and its verification traffic goes through the batch path,
// proving the baselines ride the optimized smr stack rather than
// serial Step-loop crypto.
func TestArenaAllProtocolsEngageBatchVerification(t *testing.T) {
	for _, p := range arenaProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			ap := RunPoint(ArenaSpec(p, 8, 23), microOp(1024), 500*time.Millisecond, time.Second)
			if ap.ThroughputKops <= 0 {
				t.Fatalf("%s made no progress in the arena", p)
			}
			if ap.Verifies == 0 {
				t.Fatalf("%s verified nothing despite signed requests", p)
			}
			if ap.BatchedVerifies == 0 {
				t.Fatalf("%s: no batched verifies — the deferred verify pipeline never engaged", p)
			}
		})
	}
}

// TestArenaTableListsAllProtocols checks the rendered comparison names
// every protocol in the line-up. It runs the table at toy load — the
// full-scale arena is BenchmarkArenaSim's job.
func TestArenaTableListsAllProtocols(t *testing.T) {
	var sb strings.Builder
	points := arena(&sb, 8, 200*time.Millisecond, 500*time.Millisecond)
	out := sb.String()
	if len(points) != len(arenaProtocols) {
		t.Fatalf("arena returned %d points for %d protocols", len(points), len(arenaProtocols))
	}
	for _, p := range arenaProtocols {
		if !strings.Contains(out, string(p)) {
			t.Errorf("arena table missing %s:\n%s", p, out)
		}
	}
}

// TestArenaLeavesNoGoroutines checks that building and running every
// arena protocol starts no goroutine that outlives the run: replicas
// verify on the process-wide pool rather than each starting a pool of
// its own that nothing closes.
func TestArenaLeavesNoGoroutines(t *testing.T) {
	crypto.SharedPool()
	before := runtime.NumGoroutine()
	for _, p := range arenaProtocols {
		RunPoint(ArenaSpec(p, 8, 23), microOp(1024), 100*time.Millisecond, 200*time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d across an arena sweep", before, after)
	}
}
