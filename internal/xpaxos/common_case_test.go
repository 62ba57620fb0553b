package xpaxos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/faults"
	"github.com/xft-consensus/xft/internal/smr"
)

func TestCommonCaseT1SingleRequest(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1})
	var gotRep []byte
	c.clients[0].cfg.OnCommit = func(op, rep []byte, lat time.Duration) { gotRep = rep }
	c.net.At(0, func() { c.clients[0].Invoke(kv.PutOp("x", []byte("1"))) })
	c.run(time.Second)

	if c.clients[0].Committed != 1 {
		t.Fatalf("committed = %d, want 1", c.clients[0].Committed)
	}
	if len(gotRep) != 1 || gotRep[0] != kv.StatusOK {
		t.Fatalf("reply = %v, want [StatusOK]", gotRep)
	}
	// Both active replicas (s0, s1) executed; passive s2 received the
	// entry through lazy replication.
	for _, id := range []smr.NodeID{0, 1, 2} {
		if v, ok := c.stores[id].Get("x"); !ok || !bytes.Equal(v, []byte("1")) {
			t.Errorf("replica %d store missing x (lazy replication for passive)", id)
		}
	}
	c.checkStoresConverge(0, 1, 2)
	c.checkLemma1()
}

func TestCommonCaseT1ManySequentialRequests(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1})
	ops := make([][]byte, 20)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(5 * time.Second)
	if *done != len(ops) {
		t.Fatalf("completed %d/%d requests", *done, len(ops))
	}
	for i := range ops {
		if _, ok := c.stores[0].Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d missing at primary", i)
		}
	}
	c.checkStoresConverge(0, 1, 2)
	c.checkLemma1()
}

func TestCommonCaseT2(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 2, clients: 1})
	ops := make([][]byte, 10)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(5 * time.Second)
	if *done != len(ops) {
		t.Fatalf("completed %d/%d requests", *done, len(ops))
	}
	// The three active replicas of view 0 are s0, s1, s2.
	c.checkStoresConverge(0, 1, 2)
	c.checkLemma1()
}

func TestCommonCaseMultipleClientsBatching(t *testing.T) {
	const nclients = 8
	c := newCluster(t, clusterOpts{t: 1, clients: nclients})
	perClient := 5
	total := 0
	for ci := 0; ci < nclients; ci++ {
		ops := make([][]byte, perClient)
		for i := range ops {
			ops[i] = kv.PutOp(fmt.Sprintf("c%d-k%d", ci, i), []byte("v"))
		}
		c.invokeSeq(ci, ops, nil)
		total += perClient
	}
	c.run(10 * time.Second)
	committed := uint64(0)
	for _, cl := range c.clients {
		committed += cl.Committed
	}
	if committed != uint64(total) {
		t.Fatalf("committed %d/%d requests", committed, total)
	}
	// Batching must have produced fewer batches than requests.
	if got := c.replicas[0].sn; got >= smr.SeqNum(total) {
		t.Errorf("sequence numbers used = %d for %d requests; batching ineffective", got, total)
	}
	c.checkStoresConverge(0, 1, 2)
	c.checkLemma1()
}

func TestDuplicateRequestGetsCachedReply(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1})
	cl := c.clients[0]
	c.net.At(0, func() { cl.Invoke(kv.PutOp("x", []byte("1"))) })
	c.run(time.Second)
	if cl.Committed != 1 {
		t.Fatalf("setup commit failed")
	}
	// Replay the same signed request out-of-band: the primary must not
	// execute it again (store value stays "1", executed count stable).
	before := c.stores[0].Snapshot()
	req := Request{Op: kv.PutOp("x", []byte("1")), TS: 1, Client: cl.id}
	req.Sig = cl.suite.Sign(1000, req.SigPayload())
	c.net.At(c.net.Now(), func() {
		// Deliver directly to the primary as if retransmitted.
		c.net.Node(smr.NodeID(1000)).(*Client).env.Send(0, &MsgReplicate{Req: req})
	})
	c.run(time.Second)
	if !bytes.Equal(before, c.stores[0].Snapshot()) {
		t.Fatalf("duplicate request mutated state")
	}
}

func TestFollowerExecutesAheadT1(t *testing.T) {
	// In the t=1 pattern the follower executes upon receiving m0 —
	// before the primary commits (Section 4.2.2). With one-way latency
	// L, the follower executes at ~2L, the primary at ~3L.
	c := newCluster(t, clusterOpts{t: 1, clients: 1, latency: 50 * time.Millisecond})
	var followerDone, primaryDone time.Duration
	c.replicas[1].cfg.Observer = func(cm smr.Committed) {
		if followerDone == 0 {
			followerDone = c.net.Now()
		}
	}
	c.replicas[0].cfg.Observer = func(cm smr.Committed) {
		if primaryDone == 0 {
			primaryDone = c.net.Now()
		}
	}
	c.net.At(0, func() { c.clients[0].Invoke(kv.PutOp("a", []byte("b"))) })
	c.run(2 * time.Second)
	if followerDone == 0 || primaryDone == 0 {
		t.Fatalf("not committed: follower=%v primary=%v", followerDone, primaryDone)
	}
	if followerDone >= primaryDone {
		t.Errorf("follower committed at %v, primary at %v; follower should run ahead", followerDone, primaryDone)
	}
}

func TestTable2GroupMapping(t *testing.T) {
	// Table 2 (t=1, n=3): groups rotate (s0,s1), (s0,s2), (s1,s2) with
	// primaries s0, s0, s1 and passives s2, s1, s0.
	wantGroups := [][]smr.NodeID{{0, 1}, {0, 2}, {1, 2}}
	wantPassive := []smr.NodeID{2, 1, 0}
	for v := smr.View(0); v < 9; v++ {
		got := SyncGroup(3, 1, v)
		want := wantGroups[int(v)%3]
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("view %d group = %v, want %v", v, got, want)
		}
		if p := Primary(3, 1, v); p != want[0] {
			t.Errorf("view %d primary = %d, want %d", v, p, want[0])
		}
		pas := Passive(3, 1, v)
		if len(pas) != 1 || pas[0] != wantPassive[int(v)%3] {
			t.Errorf("view %d passive = %v, want %v", v, pas, wantPassive[int(v)%3])
		}
	}
}

func TestGroupCombinatorics(t *testing.T) {
	if got := GroupCount(3, 1); got != 3 {
		t.Errorf("GroupCount(3,1) = %d, want 3", got)
	}
	if got := GroupCount(5, 2); got != 10 {
		t.Errorf("GroupCount(5,2) = %d, want 10", got)
	}
	// Every replica appears in some synchronous group across one full
	// rotation (so a correct-and-synchronous group always exists), and
	// several distinct replicas serve as primary.
	inGroup := make(map[smr.NodeID]bool)
	primaries := make(map[smr.NodeID]bool)
	for v := smr.View(0); v < smr.View(GroupCount(5, 2)); v++ {
		for _, id := range SyncGroup(5, 2, v) {
			inGroup[id] = true
		}
		primaries[Primary(5, 2, v)] = true
	}
	if len(inGroup) != 5 {
		t.Errorf("replicas covered by groups = %v, want all 5", inGroup)
	}
	if len(primaries) < 3 {
		t.Errorf("primaries seen = %v; rotation too narrow", primaries)
	}
	// Groups have t+1 distinct members in range.
	for v := smr.View(0); v < 10; v++ {
		g := SyncGroup(5, 2, v)
		if len(g) != 3 {
			t.Fatalf("group size %d, want 3", len(g))
		}
		dup := make(map[smr.NodeID]bool)
		for _, id := range g {
			if dup[id] || id < 0 || id > 4 {
				t.Fatalf("bad group %v", g)
			}
			dup[id] = true
		}
	}
}

// noLazyReplication drops what Section 4.5.2 sends to passive replicas.
var noLazyReplication = faults.DropTypes("lazy-commit", "lazychk")

// TestFigure2MessagePattern verifies the common-case message counts:
// for t=1 a request costs replicate + commit-req + commit + reply; for
// t=2 it costs replicate + 2 prepares + 2×3 commits + 3 replies.
func TestFigure2MessagePattern(t *testing.T) {
	t.Run("t=1", func(t *testing.T) {
		c := newCluster(t, clusterOpts{t: 1, clients: 1, filter: noLazyReplication, cfgMod: func(id smr.NodeID, cfg *Config) {
			cfg.BatchSize = 1
		}})
		c.net.At(0, func() { c.clients[0].Invoke(kv.GetOp("x")) })
		c.run(time.Second)
		counts := c.net.MessageCounts()
		want := map[string]uint64{"replicate": 1, "commit-req": 1, "commit": 1, "reply": 1}
		for typ, n := range want {
			if counts[typ] != n {
				t.Errorf("%s count = %d, want %d (all: %v)", typ, counts[typ], n, counts)
			}
		}
		if counts["prepare"] != 0 {
			t.Errorf("t=1 must not use prepare messages")
		}
	})
	t.Run("t=2", func(t *testing.T) {
		c := newCluster(t, clusterOpts{t: 2, clients: 1, filter: noLazyReplication, cfgMod: func(id smr.NodeID, cfg *Config) {
			cfg.BatchSize = 1
		}})
		c.net.At(0, func() { c.clients[0].Invoke(kv.GetOp("x")) })
		c.run(time.Second)
		counts := c.net.MessageCounts()
		// 2 followers × 2 commit targets each (other actives, self
		// excluded) = 4 commits; replies: 1 full + 2 digests.
		want := map[string]uint64{"replicate": 1, "prepare": 2, "commit": 4, "reply": 1, "reply-digest": 2}
		for typ, n := range want {
			if counts[typ] != n {
				t.Errorf("%s count = %d, want %d (all: %v)", typ, counts[typ], n, counts)
			}
		}
	})
}
