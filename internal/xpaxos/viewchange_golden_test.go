package xpaxos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/viewchange_t2fd.golden and testdata/wire.golden from the current code")

// TestViewChangeGolden pins the bytes of the ⟨view-change⟩ message each
// replica would send after a scripted t = 2 run with fault detection
// on: two clients under steady load, a checkpoint every 4 batches, one
// view change, and a cut mid-load so the logs hold prepared-only
// entries above the committed prefix. The message hauls the stable
// checkpoint, the commit log and (FD) the prepare log in sequence
// order, so it shows any change to what the replica's sequence log
// retains, truncates or walks. testdata/viewchange_t2fd.golden was
// generated when the logs were nine maps.
func TestViewChangeGolden(t *testing.T) {
	c := newCluster(t, clusterOpts{
		t: 2, clients: 4, reqTimeout: 300 * time.Millisecond,
		cfgMod: func(id smr.NodeID, cfg *Config) {
			cfg.EnableFD = true
			cfg.CheckpointInterval = 8
			cfg.BatchSize = 1
		},
	})
	steadyLoad(c, 0)
	steadyLoad(c, 1)
	steadyLoad(c, 2)
	steadyLoad(c, 3)
	c.net.At(400*time.Millisecond, func() { c.replicas[1].suspect(0) })
	c.run(1466 * time.Millisecond)

	var sb strings.Builder
	for _, r := range c.replicas {
		vc := r.buildViewChange(r.view + 1)
		w := wire.New(1 << 12)
		if err := AppendMessage(w, vc); err != nil {
			t.Fatal(err)
		}
		b := w.Done()
		d := crypto.Hash(b)
		fmt.Fprintf(&sb, "replica %d view %d chk %d ex %d commits %d prepares %d bytes %d sha256 %x\n",
			r.id, r.view, vc.Checkpoint.SN, r.ex, len(vc.CommitLog), len(vc.PrepareLog), len(b), d[:])
		if r.id == 1 {
			fmt.Fprintf(&sb, "replica 1 message %x\n", b)
		}
	}
	const path = "testdata/viewchange_t2fd.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("view-change bytes drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
