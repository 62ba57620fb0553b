package xpaxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// Tests for failover at protocol speed: a view whose group holds a
// known-dead member is suspected when it is entered, not when its
// timer_vc runs out; the client follows the same view-skipping rule;
// and the new primary tells the clients that its view is installed.
// All of it in the simulator, so every bound below is exact.

// TestNextViableView pins the one view-skipping rule at n=5, t=2:
//
//	0:(0,1,2) 1:(0,1,3) 2:(0,1,4) 3:(0,2,3) 4:(0,2,4)
//	5:(0,3,4) 6:(1,2,3) 7:(1,2,4) 8:(1,3,4) 9:(2,3,4)
func TestNextViableView(t *testing.T) {
	const n, tf = 5, 2
	for _, tc := range []struct {
		from smr.View
		down []smr.NodeID
		want smr.View
		ok   bool
	}{
		{from: 0, want: 0, ok: true},
		{from: 7, want: 7, ok: true},
		{from: 0, down: []smr.NodeID{4}, want: 0, ok: true},        // passive there
		{from: 0, down: []smr.NodeID{2}, want: 1, ok: true},        // a follower, not the primary
		{from: 0, down: []smr.NodeID{0}, want: 6, ok: true},        // the primary of views 0–5
		{from: 0, down: []smr.NodeID{1, 2}, want: 5, ok: true},     // live primary, both followers dead
		{from: 0, down: []smr.NodeID{0, 1}, want: 9, ok: true},     // the one group without them
		{from: 6, down: []smr.NodeID{3, 4}, want: 10, ok: true},    // wraps to (0,1,2)
		{from: 13, down: []smr.NodeID{0}, want: 16, ok: true},      // 13 = (0,2,3)
		{from: 3, down: []smr.NodeID{0, 1, 2}, want: 3, ok: false}, // more than t: nowhere to go
		{from: 0, down: []smr.NodeID{0, smr.ClientIDBase, smr.ClientIDBase + 1}, want: 6, ok: true},
	} {
		down := make(map[smr.NodeID]bool)
		for _, id := range tc.down {
			down[id] = true
		}
		got, ok := NextViableView(n, tf, tc.from, down)
		if got != tc.want || ok != tc.ok {
			t.Errorf("NextViableView(from %d, down %v) = %d, %v; want %d, %v",
				tc.from, tc.down, got, ok, tc.want, tc.ok)
		}
	}
}

// failoverCluster is a cluster whose health events the test delivers
// by hand, so which node learns of a crash first is the test's choice.
type failoverCluster struct {
	*cluster
	installs map[smr.NodeID][]install // per replica, in order
}

type install struct {
	view smr.View
	at   time.Duration
}

func newFailoverCluster(t *testing.T, opts clusterOpts) *failoverCluster {
	t.Helper()
	fc := &failoverCluster{cluster: newCluster(t, opts), installs: make(map[smr.NodeID][]install)}
	for i := range fc.replicas {
		id := smr.NodeID(i)
		fc.replicas[i].cfg.OnViewChange = func(v smr.View, at time.Duration) {
			fc.installs[id] = append(fc.installs[id], install{v, at})
		}
	}
	return fc
}

// peerDown delivers PeerDown{dead} to the given nodes at virtual time at.
func (fc *failoverCluster) peerDown(at time.Duration, dead smr.NodeID, to ...smr.Node) {
	fc.net.At(at, func() {
		for _, nd := range to {
			nd.Step(smr.PeerDown{Peer: dead, LastSeen: time.Second})
		}
	})
}

// installedAt returns when replica id installed view v, failing the
// test if it never did.
func (fc *failoverCluster) installedAt(id smr.NodeID, v smr.View) time.Duration {
	fc.t.Helper()
	for _, in := range fc.installs[id] {
		if in.view == v {
			return in.at
		}
	}
	fc.t.Fatalf("replica %d never installed view %d (installs: %v)", id, v, fc.installs[id])
	return 0
}

const (
	foDelta   = 100 * time.Millisecond
	foLatency = 10 * time.Millisecond
	// foRound bounds everything in a view change that is not the 2Δ
	// collection wait: the suspect hop, vc-final, the FD confirm round
	// and new-view, one message delay each, plus their signatures.
	foRound = 4*foLatency + 20*time.Millisecond
)

// TestDoomedViewSkippedOnEntry: replica 0 is the primary of views 0 and
// 1. When it crashes, view 1 = (0,2) is entered with 0 already known
// dead; its active replica suspects it on entry, and view 2 = (1,2)
// installs 2Δ and one round after the first PeerDown — not 4Δ (view 1's
// timer_vc) later.
func TestDoomedViewSkippedOnEntry(t *testing.T) {
	const crashAt, learnAt = 300 * time.Millisecond, 320 * time.Millisecond
	fc := newFailoverCluster(t, clusterOpts{
		t: 1, delta: foDelta, latency: foLatency,
		reqTimeout: time.Hour, // only the health signal can act
		cfgMod:     func(id smr.NodeID, cfg *Config) { cfg.EnableFD = true },
	})
	fc.net.At(crashAt, func() { fc.net.Crash(0) })
	fc.peerDown(learnAt, 0, fc.replicas[1], fc.replicas[2])
	fc.run(3 * time.Second)

	for _, id := range []smr.NodeID{1, 2} {
		took := fc.installedAt(id, 2) - learnAt
		t.Logf("replica %d installed view 2 %v after the first PeerDown", id, took)
		if took > 2*foDelta+foRound {
			t.Errorf("replica %d: view 2 installed %v after the first PeerDown, want within 2Δ + one round = %v",
				id, took, 2*foDelta+foRound)
		}
		if len(fc.installs[id]) != 1 {
			t.Errorf("replica %d installed %v, want view 2 only", id, fc.installs[id])
		}
		// One view change was attempted (view 2); view 1 was skipped and
		// must not have doubled view 2's timer_vc.
		if got := fc.replicas[id].vcConsec; got != 1 {
			t.Errorf("replica %d: vcConsec = %d after skipping one view and installing the next, want 1", id, got)
		}
	}
}

// TestPeerDownMidViewChange: the suspicion gossip can outrun a replica's
// own PeerDown — it is then already collecting for the doomed view,
// with a full timer_vc running, when it learns. It must move on then
// and there, and the abandoned attempt must not double the next view's
// timer.
func TestPeerDownMidViewChange(t *testing.T) {
	const crashAt = 300 * time.Millisecond
	fc := newFailoverCluster(t, clusterOpts{
		t: 1, delta: foDelta, latency: foLatency, reqTimeout: time.Hour,
	})
	fc.net.At(crashAt, func() { fc.net.Crash(0) })
	fc.peerDown(crashAt+20*time.Millisecond, 0, fc.replicas[1])
	// Replica 2 hears replica 1's suspicion 10 ms later, enters view 1 =
	// (0,2) as an active replica with nobody known down, and learns of
	// the crash only 50 ms after that.
	fc.net.At(crashAt+60*time.Millisecond, func() {
		if r := fc.replicas[2]; r.view != 1 || !r.InViewChange() || r.vcConsec != 1 {
			t.Errorf("replica 2 before its PeerDown: view %d, in view change %v, vcConsec %d; want 1, true, 1",
				r.view, r.InViewChange(), r.vcConsec)
		}
	})
	fc.peerDown(crashAt+80*time.Millisecond, 0, fc.replicas[2])
	fc.run(3 * time.Second)

	for _, id := range []smr.NodeID{1, 2} {
		if took := fc.installedAt(id, 2) - (crashAt + 80*time.Millisecond); took > 2*foDelta+foRound {
			t.Errorf("replica %d: view 2 installed %v after replica 2 learned, want within %v", id, took, 2*foDelta+foRound)
		}
		if got := fc.replicas[id].vcConsec; got != 1 {
			t.Errorf("replica %d: vcConsec = %d, want 1 (the abandoned view 1 is not an attempt)", id, got)
		}
	}
}

// TestSkippedViewsDoNotInflateBackoff: at t=2 killing replica 0 dooms
// views 0–5; the survivors cascade through five of them to view 6 =
// (1,2,3). Its timer_vc must be the base timeout, not the base shifted
// by the views skipped on the way.
func TestSkippedViewsDoNotInflateBackoff(t *testing.T) {
	const crashAt, learnAt = 300 * time.Millisecond, 320 * time.Millisecond
	fc := newFailoverCluster(t, clusterOpts{
		t: 2, delta: foDelta, latency: foLatency, reqTimeout: time.Hour,
	})
	fc.net.At(crashAt, func() { fc.net.Crash(0) })
	fc.peerDown(learnAt, 0, fc.replicas[1], fc.replicas[2], fc.replicas[3], fc.replicas[4])
	// Well inside view 6's collection: every cascade hop is one message
	// delay, and nothing has installed yet.
	fc.net.At(learnAt+150*time.Millisecond, func() {
		for _, id := range []smr.NodeID{1, 2, 3} {
			r := fc.replicas[id]
			if r.view != 6 || r.collecting() == nil {
				t.Errorf("replica %d at view %d (collecting: %v), want collecting for view 6", id, r.view, r.collecting() != nil)
				continue
			}
			if r.vcConsec != 1 {
				t.Errorf("replica %d: vcConsec = %d entering the first viable view, want 1", id, r.vcConsec)
			}
		}
	})
	fc.run(3 * time.Second)
	for _, id := range []smr.NodeID{1, 2, 3} {
		if took := fc.installedAt(id, 6) - learnAt; took > 2*foDelta+foRound+5*foLatency {
			t.Errorf("replica %d: view 6 installed %v after the PeerDown, want within 2Δ + a round + five gossip hops", id, took)
		}
	}
}

// TestDeadFollowerAtT2: at t=2 view 0 = (0,1,2) with follower 2 dead
// has a live primary and cannot commit. Replicas and client must agree
// on where to go — view 1 = (0,1,3) — although its primary is the one
// the client was already talking to.
func TestDeadFollowerAtT2(t *testing.T) {
	const crashAt, learnAt = 300 * time.Millisecond, 320 * time.Millisecond
	fc := newFailoverCluster(t, clusterOpts{
		t: 2, clients: 1, delta: foDelta, latency: foLatency, reqTimeout: time.Hour,
	})
	ops := make([][]byte, 50) // about 40 ms each: the crash lands at the eighth
	for i := range ops {
		ops[i] = kv.PutOp("k", []byte{byte(i)})
	}
	done := fc.invokeSeq(0, ops, nil)
	fc.net.At(crashAt, func() { fc.net.Crash(2) })
	fc.peerDown(learnAt, 2, fc.replicas[0], fc.replicas[1], fc.replicas[3], fc.replicas[4], fc.clients[0])
	fc.run(5 * time.Second)

	if *done != len(ops) {
		t.Fatalf("committed %d of %d ops across the follower's crash (client view %d)", *done, len(ops), fc.clients[0].View())
	}
	for _, id := range []smr.NodeID{0, 1, 3} {
		if v := fc.replicas[id].view; v != 1 {
			t.Errorf("replica %d ended in view %d, want 1", id, v)
		}
	}
	if v := fc.clients[0].View(); v != 1 {
		t.Errorf("client ended at view %d, want 1", v)
	}
	fc.checkLemma1()
}

// TestTooManyDownDoesNotSpin: with more than t peers down every group
// holds a dead member. Skipping is futile; the replica must sit still
// rather than race through view numbers.
func TestTooManyDownDoesNotSpin(t *testing.T) {
	fc := newFailoverCluster(t, clusterOpts{
		t: 2, delta: foDelta, latency: foLatency, reqTimeout: time.Hour,
	})
	fc.net.At(300*time.Millisecond, func() {
		for _, id := range []smr.NodeID{2, 3, 4} {
			fc.net.Crash(id)
		}
	})
	// One at a time: the first two PeerDowns leave a viable view.
	fc.peerDown(320*time.Millisecond, 4, fc.replicas[0], fc.replicas[1])
	fc.peerDown(330*time.Millisecond, 3, fc.replicas[0], fc.replicas[1])
	fc.peerDown(340*time.Millisecond, 2, fc.replicas[0], fc.replicas[1])
	fc.run(350 * time.Millisecond)
	before := []smr.View{fc.replicas[0].view, fc.replicas[1].view}
	fc.run(150 * time.Millisecond) // less than any timer_vc
	for i, r := range fc.replicas[:2] {
		if r.view != before[i] {
			t.Errorf("replica %d moved from view %d to %d with three of five down and no timer due", i, before[i], r.view)
		}
	}
	// Over ten seconds only timers move the view: a handful of steps,
	// not a gossip-speed race.
	fc.run(10 * time.Second)
	for i, r := range fc.replicas[:2] {
		if r.view > before[i]+20 {
			t.Errorf("replica %d raced from view %d to %d in 10 s with three of five down", i, before[i], r.view)
		}
	}
}

// TestViewInstalledRedirectsClient: pending requests are back at the
// new primary one client↔primary round trip after the install,
// whichever of client and replicas noticed the crash first, and also
// for a client that never notices. The request timer is an hour, so
// only the notice can do it.
func TestViewInstalledRedirectsClient(t *testing.T) {
	const crashAt = 300 * time.Millisecond
	for _, tc := range []struct {
		name                    string
		replicasLearn, clientAt time.Duration // after the crash; 0 = the client never learns
		wantRotations           uint64
	}{
		{"replicas first", 20 * time.Millisecond, 400 * time.Millisecond, 0},
		{"client first", 300 * time.Millisecond, 20 * time.Millisecond, 1},
		{"same instant", 20 * time.Millisecond, 20 * time.Millisecond, 1},
		{"client never", 20 * time.Millisecond, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := newFailoverCluster(t, clusterOpts{
				t: 1, clients: 1, delta: foDelta, latency: foLatency, reqTimeout: time.Hour,
			})
			cl := fc.clients[0]
			var commits []time.Duration
			cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) { commits = append(commits, fc.net.Now()) }
			ops := make([][]byte, 100)
			for i := range ops {
				ops[i] = kv.PutOp("k", []byte{byte(i)})
			}
			done := fc.invokeSeq(0, ops, nil)
			fc.net.At(crashAt, func() { fc.net.Crash(0) })
			fc.peerDown(crashAt+tc.replicasLearn, 0, fc.replicas[1], fc.replicas[2])
			if tc.clientAt != 0 {
				fc.peerDown(crashAt+tc.clientAt, 0, cl)
			}
			fc.run(5 * time.Second)

			if *done != len(ops) {
				t.Fatalf("committed %d of %d ops (client view %d, rotations %d)", *done, len(ops), cl.View(), cl.HealthRotations)
			}
			installed := fc.installedAt(1, 2)
			var resumed time.Duration
			for _, at := range commits {
				if at > crashAt {
					resumed = at
					break
				}
			}
			// Notice out, request back: one round trip. Then the commit
			// itself: the order to the follower and back, and the reply.
			took := resumed - installed
			t.Logf("view 2 installed at %v, first commit after the crash %v later", installed, took)
			if took > 2*foLatency+3*foLatency+15*time.Millisecond {
				t.Errorf("first commit %v after the install, want one round trip plus one commit", took)
			}
			if cl.Retransmits != 0 {
				t.Errorf("%d request timeouts fired; the notice must act first", cl.Retransmits)
			}
			if cl.HealthRotations != tc.wantRotations || cl.View() != 2 {
				t.Errorf("client at view %d after %d health rotations, want view 2 after %d",
					cl.View(), cl.HealthRotations, tc.wantRotations)
			}
			fc.checkLemma1()
		})
	}
}

// TestViewInstalledIgnoredUnlessGenuine: a notice from anyone but the
// announced view's primary, with a bad MAC, for a view behind the
// client's guess, or repeated, changes nothing and re-sends nothing.
func TestViewInstalledIgnoredUnlessGenuine(t *testing.T) {
	env := &clientEnv{id: smr.ClientIDBase}
	c := newHealthTestClient(t, env, 1)
	suite := crypto.NewSimSuite(1) // newHealthTestClient's seed
	c.Invoke(kv.PutOp("k", []byte("v")))
	notice := func(view smr.View, from, macFrom smr.NodeID) *MsgViewInstalled {
		m := &MsgViewInstalled{View: view, From: from}
		m.MAC = suite.MAC(crypto.NodeID(macFrom), crypto.NodeID(env.id), m.MACPayload())
		return m
	}
	deliver := func(from smr.NodeID, m *MsgViewInstalled, wantView smr.View, wantSends int, what string) {
		t.Helper()
		c.Step(smr.Recv{From: from, Msg: m})
		if got := len(replicatesTo(env)); c.View() != wantView || got != wantSends {
			t.Fatalf("%s: view %d with %d requests sent, want view %d with %d", what, c.View(), got, wantView, wantSends)
		}
	}
	// View 2 = (1,2): its primary is 1.
	deliver(2, notice(2, 2, 2), 0, 1, "from a follower of the view")
	deliver(0, notice(2, 0, 0), 0, 1, "from a replica outside the view")
	deliver(2, notice(2, 1, 1), 0, 1, "relayed: the sender is not the signer")
	deliver(1, notice(2, 1, 2), 0, 1, "MAC under another replica's key")
	forged := notice(2, 1, 1)
	forged.View = 5 // view 5 = (1,2) at n=3 too: right primary, MAC over another view
	deliver(1, forged, 0, 1, "MAC does not cover the view")
	deliver(1, notice(2, 1, 1), 2, 2, "genuine")
	deliver(1, notice(2, 1, 1), 2, 2, "repeated")
	deliver(0, notice(1, 0, 0), 2, 2, "for a view behind the guess")
	deliver(1, notice(5, 1, 1), 5, 3, "genuine, for a later view")
}

// TestWindowedClientSurvivesPrimaryCrash is the regression test for the
// wedged window: a window of 64 — the width of the replicas' per-client
// dedupe window — driven open loop, one request a millisecond, through
// a primary crash. The requests in flight at the crash are stranded:
// the client re-sends them on its own PeerDown, before the next primary
// is one, and the ⟨view-installed⟩ notice that would bring them back is
// lost here, so they wait out their one-second timers. Meanwhile the
// requests issued after them commit in the new view, and every commit
// frees a slot for a newer one. Bounding only the count let the
// timestamps run 64 past the stranded requests within 64 ms, and every
// replica then took those for executed long ago and never answered.
func TestWindowedClientSurvivesPrimaryCrash(t *testing.T) {
	const (
		total, window    = 3000, execWindowBits
		crashAt, learnAt = 500 * time.Millisecond, 520 * time.Millisecond
	)
	fc := newFailoverCluster(t, clusterOpts{
		t: 1, clients: 1, delta: foDelta, latency: foLatency, reqTimeout: time.Second,
		clientMod: func(id smr.NodeID, cc *ClientConfig) { cc.Window = window },
	})
	cl := fc.clients[0]
	issued := 0
	// What does not fit the window waits for the next tick, as a
	// generator's backlog would.
	var tick func()
	tick = func() {
		if issued == total {
			return
		}
		if cl.CanInvoke() {
			cl.Invoke(kv.PutOp(fmt.Sprintf("k%d", issued%7), []byte(fmt.Sprintf("v%d", issued))))
			issued++
		}
		fc.net.After(time.Millisecond, tick)
	}
	fc.net.At(fc.net.Now(), tick)
	fc.net.At(crashAt, func() { fc.net.Crash(0) })
	fc.peerDown(learnAt, 0, cl, fc.replicas[1], fc.replicas[2])
	// View 2 installs 240 ms after the PeerDown and the notice arrives
	// 10 ms later, well ahead of the first reply: it alone is lost.
	fc.net.At(learnAt+245*time.Millisecond, func() { fc.net.CutLink(1, cl.id) })
	fc.net.At(learnAt+255*time.Millisecond, func() { fc.net.HealLink(1, cl.id) })
	fc.run(30 * time.Second)

	if cl.Retransmits == 0 {
		t.Error("no request timer fired: the stranded requests were rescued some other way, and the test no longer tests the window")
	}
	if issued != total || cl.Committed != total {
		var stuck []uint64
		for ts := range cl.pending {
			stuck = append(stuck, ts)
		}
		t.Fatalf("issued %d, committed %d of %d; stuck timestamps %v (newest %d)", issued, cl.Committed, total, stuck, cl.ts)
	}
	fc.checkLemma1()
	fc.checkStoresConverge(1, 2)
}
