//go:build scale

package campaign

// The one campaign test kept out of the default `go test ./...`: it is
// minutes of wall clock on its own (two to ten: the cost is view changes
// times the log hauled by each, and which groups a seed's rotation lands
// on moves it severalfold). CI's campaign-smoke job runs it
// with `-tags scale`; the nightly soak runs the same profile at full
// scale.

import "testing"

// TestCampaignByzantineMixAtScale is the acceptance-scale run: the
// byzantine-mix profile at its full defaults — n = 13 replicas
// (t = 6), 1000 open-loop clients — with every safety invariant
// asserted. Virtual time keeps it CI-sized.
func TestCampaignByzantineMixAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale campaign skipped in -short mode")
	}
	res := Run(Config{Profile: ByzantineMix, Seed: 20260808})
	if n := 2*res.Config.T + 1; n < 12 {
		t.Fatalf("scale run has only %d replicas", n)
	}
	if res.Config.Clients < 1000 {
		t.Fatalf("scale run has only %d clients", res.Config.Clients)
	}
	if !res.OK() {
		t.Fatalf("byzantine-mix at scale violated invariants: %v\nrepro: %s", res.Violations, res.Repro)
	}
	if res.Acked == 0 {
		t.Fatalf("no request acknowledged at scale")
	}
	t.Logf("scale run: acked=%d commits=%d view-changes=%d detections=%d measured-avail=%.3f",
		res.Acked, res.Commits, res.ViewChanges, len(res.Detections), res.MeasuredAvail)
}
