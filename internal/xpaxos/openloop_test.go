package xpaxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

// TestOpenLoopWindowedClient drives one client with a window of 8
// through the simulated cluster: all requests commit, the window is
// actually exercised (more than one request in flight), per-request
// replies arrive, and the replicas converge.
func TestOpenLoopWindowedClient(t *testing.T) {
	const total, window = 60, 8
	c := newCluster(t, clusterOpts{t: 1, clients: 1, clientMod: func(id smr.NodeID, cc *ClientConfig) {
		cc.Window = window
	}})
	cl := c.clients[0]
	issued := 0
	maxOut := 0
	pump := func() {
		for cl.CanInvoke() && issued < total {
			cl.Invoke(kv.PutOp(fmt.Sprintf("k%d", issued%5), []byte(fmt.Sprintf("v%d", issued))))
			issued++
			if cl.Outstanding() > maxOut {
				maxOut = cl.Outstanding()
			}
		}
	}
	cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) { pump() }
	c.net.At(c.net.Now(), pump)
	c.run(5 * time.Second)

	if cl.Committed != total {
		t.Fatalf("committed %d of %d requests", cl.Committed, total)
	}
	if maxOut < 2 {
		t.Errorf("window never opened: max outstanding = %d", maxOut)
	}
	if cl.Outstanding() != 0 {
		t.Errorf("%d requests still outstanding", cl.Outstanding())
	}
	c.checkLemma1()
	c.checkStoresConverge(0, 1)
}

// TestOpenLoopWindowOverflowPanics preserves the closed-loop contract:
// invoking past the window is a driver bug and must fail loudly.
func TestOpenLoopWindowOverflowPanics(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1, clientMod: func(id smr.NodeID, cc *ClientConfig) {
		cc.Window = 2
	}})
	cl := c.clients[0]
	defer func() {
		if recover() == nil {
			t.Error("third Invoke with window 2 did not panic")
		}
	}()
	c.net.At(c.net.Now(), func() {
		cl.Invoke(kv.PutOp("a", []byte("1")))
		cl.Invoke(kv.PutOp("b", []byte("2")))
		cl.Invoke(kv.PutOp("c", []byte("3")))
	})
	c.run(50 * time.Millisecond)
}

// TestOpenLoopSurvivesShedding pushes a windowed client through a
// primary whose intake is tiny, so some requests are shed and must
// recover via retransmission — exercising the gap barrier end to end:
// every request still commits exactly once, in client-timestamp order.
func TestOpenLoopSurvivesShedding(t *testing.T) {
	const total, window = 30, 6
	c := newCluster(t, clusterOpts{
		t:          1,
		clients:    1,
		reqTimeout: 250 * time.Millisecond,
		cfgMod: func(id smr.NodeID, cfg *Config) {
			cfg.IntakeQueueCap = 2
			cfg.IntakePerClient = 2
			cfg.PipelineWindow = 2
			cfg.BatchSize = 2
		},
		clientMod: func(id smr.NodeID, cc *ClientConfig) {
			cc.Window = window
		},
	})
	cl := c.clients[0]
	issued := 0
	pump := func() {
		for cl.CanInvoke() && issued < total {
			cl.Invoke(kv.PutOp("k", []byte(fmt.Sprintf("v%d", issued))))
			issued++
		}
	}
	cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) { pump() }
	c.net.At(c.net.Now(), pump)
	c.run(20 * time.Second)

	if cl.Committed != total {
		st := c.replicas[0].IntakeStats()
		t.Fatalf("committed %d of %d (intake: %+v, retransmits %d)",
			cl.Committed, total, st, cl.Retransmits)
	}
	if shed := c.replicas[0].IntakeStats().Shed; shed == 0 {
		t.Log("note: no sheds occurred; barrier path not exercised this run")
	}
	// Every timestamp the client issued must have committed at the
	// primary — none skipped by the at-most-once counter.
	for ts := uint64(1); ts <= total; ts++ {
		if len(c.commits[0][watchKey{Client: cl.id, TS: ts}]) == 0 {
			t.Errorf("client TS %d never committed at the primary", ts)
		}
	}
	c.checkLemma1()
	c.checkStoresConverge(0, 1)
}
