package xpaxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/faults"
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
// primary that loses some of its requests, which must recover via
// retransmission — exercising the gap barrier end to end: every request
// still commits exactly once, in client-timestamp order. In one case
// the primary's intake is tiny and sheds; in the other the client fills
// the whole session window and the reply to its oldest request is lost,
// so the replicas serve timestamp 1 while timestamp 64 is in flight.
func TestOpenLoopSurvivesShedding(t *testing.T) {
	firstReplyLost := false
	for _, tc := range []struct {
		name          string
		total, window int
		cfgMod        func(id smr.NodeID, cfg *Config)
		filter        faults.SendFilter
	}{
		{name: "tiny intake", total: 30, window: 6, cfgMod: func(id smr.NodeID, cfg *Config) {
			cfg.IntakeQueueCap = 2
			cfg.PipelineWindow = 2
			cfg.BatchSize = 2
		}},
		{name: "full window, first reply lost", total: execWindowBits, window: execWindowBits,
			filter: func(to smr.NodeID, m smr.Message) []faults.Send {
				if rep, ok := m.(*MsgReply); ok && rep.TS == 1 && !firstReplyLost {
					firstReplyLost = true
					return nil
				}
				return faults.PassThrough(to, m)
			}},
	} {
		c := newCluster(t, clusterOpts{
			t: 1, clients: 1, reqTimeout: 250 * time.Millisecond,
			cfgMod: tc.cfgMod, filter: tc.filter,
			clientMod: func(id smr.NodeID, cc *ClientConfig) { cc.Window = tc.window },
		})
		cl := c.clients[0]
		issued := 0
		pump := func() {
			for cl.CanInvoke() && issued < tc.total {
				cl.Invoke(kv.PutOp("k", []byte(fmt.Sprintf("v%d", issued))))
				issued++
			}
		}
		cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) { pump() }
		c.net.At(c.net.Now(), pump)
		c.run(20 * time.Second)

		if cl.Committed != uint64(tc.total) {
			st := c.replicas[0].IntakeStats()
			t.Fatalf("%s: committed %d of %d (intake: %+v, retransmits %d)",
				tc.name, cl.Committed, tc.total, st, cl.Retransmits)
		}
		if cl.Retransmits == 0 {
			t.Errorf("%s: no request was retransmitted; the recovery path was not exercised", tc.name)
		}
		// Every timestamp the client issued must have committed at the
		// primary — none skipped by the at-most-once counter.
		for ts := uint64(1); ts <= uint64(tc.total); ts++ {
			if len(c.commits[0][watchKey{Client: cl.id, TS: ts}]) == 0 {
				t.Errorf("%s: client TS %d never committed at the primary", tc.name, ts)
			}
		}
		if c.replicas[0].View() != 0 {
			t.Errorf("%s: the group changed view (%d) over requests that all made progress", tc.name, c.replicas[0].View())
		}
		c.checkLemma1()
		c.checkStoresConverge(0, 1)
	}
}
