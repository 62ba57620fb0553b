package smr_test

import (
	"bytes"
	"testing"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

// ---------------------------------------------------------------------------
// Basic types
// ---------------------------------------------------------------------------

func TestNodeIDIsClient(t *testing.T) {
	cases := []struct {
		id   smr.NodeID
		want bool
	}{
		{0, false}, {1, false}, {999, false},
		{smr.ClientIDBase, true}, {smr.ClientIDBase + 1, true}, {9999, true},
	}
	for _, c := range cases {
		if got := c.id.IsClient(); got != c.want {
			t.Errorf("NodeID(%d).IsClient() = %v, want %v", c.id, got, c.want)
		}
	}
}

// ---------------------------------------------------------------------------
// Application contract
// ---------------------------------------------------------------------------

// TestApplicationContractRoundTrip exercises the Application interface
// the way the replication layer relies on it: deterministic Execute
// across instances, and Snapshot/Restore transferring the whole state.
func TestApplicationContractRoundTrip(t *testing.T) {
	var a, b smr.Application = kv.NewStore(), kv.NewStore()

	ops := [][]byte{
		kv.PutOp("alpha", []byte("1")),
		kv.PutOp("beta", []byte("2")),
		kv.PutOp("alpha", []byte("3")), // overwrite
		kv.GetOp("alpha"),
		kv.GetOp("missing"),
	}
	for i, op := range ops {
		ra, rb := a.Execute(op), b.Execute(op)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("op %d: replies diverge across identical instances: %q vs %q", i, ra, rb)
		}
	}

	// Snapshot/Restore must transfer the full state: a fresh instance
	// restored from a's snapshot must answer like a.
	snap := a.Snapshot()
	c := kv.NewStore()
	if err := c.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, key := range []string{"alpha", "beta", "missing"} {
		if got, want := c.Execute(kv.GetOp(key)), a.Execute(kv.GetOp(key)); !bytes.Equal(got, want) {
			t.Errorf("restored state diverges on %q: %q vs %q", key, got, want)
		}
	}
	// Snapshots of equal state must be identical (they are digested for
	// checkpoint agreement).
	if !bytes.Equal(a.Snapshot(), c.Snapshot()) {
		t.Error("snapshots of equal states differ")
	}
}
