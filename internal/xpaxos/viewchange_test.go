package xpaxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

// steadyLoad drives a client in a loop, tolerating retransmissions.
// The returned stop function halts issuing so the cluster can quiesce
// before state comparisons.
func steadyLoad(c *cluster, ci int) (done *int, stop func()) {
	done = new(int)
	stopped := false
	cl := c.clients[ci]
	i := 0
	cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) {
		*done++
		i++
		if !stopped {
			cl.Invoke(kv.PutOp(fmt.Sprintf("steady-%d-%d", ci, i), []byte("v")))
		}
	}
	c.net.At(c.net.Now(), func() { cl.Invoke(kv.PutOp(fmt.Sprintf("steady-%d-0", ci), []byte("v"))) })
	return done, func() { stopped = true }
}

func TestViewChangeOnPrimaryCrash(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1, reqTimeout: 300 * time.Millisecond})
	done, stop := steadyLoad(c, 0)
	c.run(2 * time.Second)
	beforeCrash := *done
	if beforeCrash == 0 {
		t.Fatalf("no commits before crash")
	}

	c.net.Crash(0) // primary of view 0
	c.run(10 * time.Second)
	stop()
	c.run(2 * time.Second) // quiesce before state comparison

	afterCrash := *done
	if afterCrash <= beforeCrash {
		t.Fatalf("no commits after primary crash: before=%d after=%d (view s1=%d s2=%d)",
			beforeCrash, afterCrash, c.replicas[1].view, c.replicas[2].view)
	}
	// s1 and s2 must have moved past view 0 into a view excluding s0 as
	// an operational requirement... any view whose group excludes s0 or
	// tolerates it being down. With the Table 2 rotation, view 2 =
	// (s1,s2) is the first group without s0.
	for _, id := range []smr.NodeID{1, 2} {
		if c.replicas[id].view == 0 {
			t.Errorf("replica %d still in view 0 after primary crash", id)
		}
		if c.replicas[id].InViewChange() {
			t.Errorf("replica %d stuck in view change", id)
		}
	}
	c.checkStoresConverge(1, 2)
	c.checkLemma1()
}

func TestViewChangeOnFollowerCrash(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1, reqTimeout: 300 * time.Millisecond})
	done, stop := steadyLoad(c, 0)
	c.run(2 * time.Second)
	before := *done

	c.net.Crash(1) // follower of view 0
	c.run(10 * time.Second)
	stop()
	c.run(2 * time.Second)

	if *done <= before {
		t.Fatalf("no commits after follower crash (views: s0=%d s2=%d)",
			c.replicas[0].view, c.replicas[2].view)
	}
	// View 1 = (s0, s2) excludes the crashed follower.
	c.checkStoresConverge(0, 2)
	c.checkLemma1()
}

func TestViewChangePreservesCommittedRequests(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1, reqTimeout: 300 * time.Millisecond})
	// Commit a known set of keys first.
	ops := make([][]byte, 8)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("pre-%d", i), []byte{byte(i)})
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(2 * time.Second)
	if *done != len(ops) {
		t.Fatalf("pre-phase commits %d/%d", *done, len(ops))
	}

	// Crash the primary; the surviving replicas must carry every
	// committed key into the new view.
	c.net.Crash(0)
	// Trigger a view change through client activity.
	cl := c.clients[0]
	cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) {}
	c.net.At(c.net.Now(), func() { cl.Invoke(kv.PutOp("post", []byte("p"))) })
	c.run(10 * time.Second)

	if cl.Committed != uint64(len(ops))+1 {
		t.Fatalf("post-crash request did not commit (committed=%d)", cl.Committed)
	}
	for i := range ops {
		key := fmt.Sprintf("pre-%d", i)
		for _, id := range []smr.NodeID{1, 2} {
			if _, ok := c.stores[id].Get(key); !ok {
				t.Errorf("replica %d lost committed key %s across view change", id, key)
			}
		}
	}
	c.checkStoresConverge(1, 2)
	c.checkLemma1()
}

func TestViewChangeT2(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 2, clients: 1, reqTimeout: 300 * time.Millisecond})
	done, _ := steadyLoad(c, 0)
	c.run(2 * time.Second)
	before := *done
	if before == 0 {
		t.Fatalf("no commits before crash")
	}
	c.net.Crash(0) // primary of view 0 (group {0,1,2})
	c.run(15 * time.Second)
	if *done <= before {
		views := make([]smr.View, 5)
		for i, r := range c.replicas {
			views[i] = r.view
		}
		t.Fatalf("no commits after primary crash at t=2 (views=%v)", views)
	}
	c.checkLemma1()
}

func TestViewChangeFigure3Pattern(t *testing.T) {
	// Count view-change protocol messages for a single, cleanly
	// triggered view change (suspect → view-change → vc-final →
	// new-view), without FD.
	c := newCluster(t, clusterOpts{t: 1, clients: 0})
	c.run(100 * time.Millisecond)
	base := c.net.MessageCounts()
	// s1 (active in view 0) suspects view 0 directly.
	c.net.At(c.net.Now(), func() { c.replicas[1].suspect(0) })
	c.run(5 * time.Second)
	counts := c.net.MessageCounts()
	delta := func(typ string) uint64 { return counts[typ] - base[typ] }

	// suspect: s1 broadcasts to 2 others; receivers gossip once more
	// each → up to 6, at least 2.
	if d := delta("suspect"); d < 2 {
		t.Errorf("suspect messages = %d, want ≥ 2", d)
	}
	// view-change: every replica sends to the t+1=2 actives of view 1
	// (minus self-sends) — s0→{s0,s2}\{s0}=1, s1→2, s2→1 ⇒ 4.
	if d := delta("view-change"); d != 4 {
		t.Errorf("view-change messages = %d, want 4", d)
	}
	// vc-final: each of the 2 actives sends to the other ⇒ 2.
	if d := delta("vc-final"); d != 2 {
		t.Errorf("vc-final messages = %d, want 2", d)
	}
	// new-view: primary s0 → s2 ⇒ 1.
	if d := delta("new-view"); d != 1 {
		t.Errorf("new-view messages = %d, want 1", d)
	}
	// The new view must be operational.
	for _, id := range []smr.NodeID{0, 2} {
		if c.replicas[id].view != 1 || c.replicas[id].InViewChange() {
			t.Errorf("replica %d not settled in view 1 (view=%d vc=%v)", id, c.replicas[id].view, c.replicas[id].InViewChange())
		}
	}
}

func TestRepeatedViewChanges(t *testing.T) {
	// Crash and recover replicas in sequence (a mild version of
	// Figure 9); the system must keep making progress whenever a
	// correct synchronous group exists.
	c := newCluster(t, clusterOpts{t: 1, clients: 1, reqTimeout: 250 * time.Millisecond})
	done, _ := steadyLoad(c, 0)
	c.net.At(1*time.Second, func() { c.net.Crash(1) })
	c.net.At(4*time.Second, func() { c.net.Recover(1) })
	c.net.At(7*time.Second, func() { c.net.Crash(0) })
	c.net.At(10*time.Second, func() { c.net.Recover(0) })
	c.net.At(13*time.Second, func() { c.net.Crash(2) })
	c.net.At(16*time.Second, func() { c.net.Recover(2) })
	checkpoints := []int{}
	for sec := 3; sec <= 19; sec += 3 {
		sec := sec
		c.net.At(time.Duration(sec)*time.Second, func() { checkpoints = append(checkpoints, *done) })
	}
	c.run(20 * time.Second)
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i] < checkpoints[i-1] {
			t.Fatalf("commit counter regressed")
		}
	}
	if *done < 10 {
		t.Fatalf("too few commits across fault sequence: %d", *done)
	}
	c.checkLemma1()
}

func TestClientRetransmissionSignedReply(t *testing.T) {
	// Drop the reply to the client by cutting the client→primary link
	// after the request is sent; the retransmission path (Algorithm 4)
	// must deliver a signed-reply bundle or drive a view change that
	// unblocks the client.
	c := newCluster(t, clusterOpts{t: 1, clients: 1, reqTimeout: 200 * time.Millisecond})
	cl := c.clients[0]
	c.net.At(0, func() { cl.Invoke(kv.PutOp("x", []byte("1"))) })
	// Cut the primary→client direction only, after ~5ms (request gets
	// through; the reply is lost).
	c.net.At(5*time.Millisecond, func() { c.net.CutLink(0, smr.NodeID(1000)) })
	c.run(10 * time.Second)
	if cl.Committed != 1 {
		t.Fatalf("client did not commit via retransmission path (retransmits=%d, view=%d)", cl.Retransmits, cl.view)
	}
	if cl.Retransmits == 0 {
		t.Errorf("expected at least one retransmission")
	}
}

func TestPartitionedPrimaryTriggersViewChange(t *testing.T) {
	// Network fault (not crash): partition the primary away from
	// everyone. The remaining majority must form a new view.
	c := newCluster(t, clusterOpts{t: 1, clients: 1, reqTimeout: 250 * time.Millisecond})
	done, _ := steadyLoad(c, 0)
	c.run(time.Second)
	before := *done
	c.net.At(c.net.Now(), func() { c.net.Partition(0) }) // isolate s0
	c.run(12 * time.Second)
	if *done <= before {
		t.Fatalf("no progress after partitioning primary (s1 view=%d s2 view=%d)",
			c.replicas[1].view, c.replicas[2].view)
	}
	c.checkLemma1()
	// Heal: s0 must catch up and rejoin.
	c.net.At(c.net.Now(), func() { c.net.HealAll() })
	c.run(8 * time.Second)
	if c.replicas[0].view == 0 {
		t.Errorf("healed replica never advanced its view")
	}
}

func TestCheckpointTruncatesLogs(t *testing.T) {
	c := newCluster(t, clusterOpts{t: 1, clients: 1, cfgMod: func(id smr.NodeID, cfg *Config) {
		cfg.CheckpointInterval = 4
		cfg.BatchSize = 1
	}})
	ops := make([][]byte, 20)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(5 * time.Second)
	if *done != len(ops) {
		t.Fatalf("commits %d/%d", *done, len(ops))
	}
	for _, id := range []smr.NodeID{0, 1} {
		r := c.replicas[id]
		if r.chk.SN == 0 {
			t.Errorf("replica %d never checkpointed", id)
		}
		commits := r.log.commits()
		for _, e := range commits {
			if e.SN() <= r.chk.SN {
				t.Errorf("replica %d kept log entry %d below checkpoint %d", id, e.SN(), r.chk.SN)
			}
		}
		if len(commits) > 2*4 {
			t.Errorf("replica %d commit log grew to %d entries despite checkpointing", id, len(commits))
		}
	}
}

func TestViewChangeAfterCheckpointTransfersState(t *testing.T) {
	// Force checkpoints, then crash the primary. The new view must
	// start from the checkpoint and keep all data.
	c := newCluster(t, clusterOpts{t: 1, clients: 1, reqTimeout: 300 * time.Millisecond, cfgMod: func(id smr.NodeID, cfg *Config) {
		cfg.CheckpointInterval = 4
		cfg.BatchSize = 1
	}})
	ops := make([][]byte, 10)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(3 * time.Second)
	if *done != len(ops) {
		t.Fatalf("setup commits %d/%d", *done, len(ops))
	}
	c.net.Crash(0)
	cl := c.clients[0]
	cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) {}
	c.net.At(c.net.Now(), func() { cl.Invoke(kv.PutOp("post", []byte("p"))) })
	c.run(10 * time.Second)
	if cl.Committed != uint64(len(ops))+1 {
		t.Fatalf("post-crash commit failed")
	}
	for i := range ops {
		if _, ok := c.stores[1].Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("key k%d lost across checkpointed view change", i)
		}
	}
	c.checkStoresConverge(1, 2)
}
