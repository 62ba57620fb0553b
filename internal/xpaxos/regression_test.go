package xpaxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// regressionConfig builds the minimal valid replica config the pruning
// tests below need; no runtime is attached, so callbacks stay nil.
func regressionConfig() Config {
	return Config{
		N: 3, T: 1,
		Suite:             crypto.NewMeter(crypto.NewSimSuite(7)),
		Delta:             100 * time.Millisecond,
		BatchSize:         4,
		RequestTimeout:    500 * time.Millisecond,
		ViewChangeTimeout: 400 * time.Millisecond,
	}
}

// TestClientWindowRejected pins the fix for the silent clamp: a client
// window wider than the replicas' per-client execution-dedupe window
// (execWindowBits) used to be accepted and quietly truncated, leaving
// the caller's own in-flight accounting out of sync with the cluster.
// NewClient must refuse it outright.
func TestClientWindowRejected(t *testing.T) {
	base := ClientConfig{N: 3, T: 1, Suite: crypto.NewMeter(crypto.NewSimSuite(7))}

	cfg := base
	cfg.Window = execWindowBits + 1
	if _, err := NewClient(smr.ClientIDBase, cfg); err == nil {
		t.Fatalf("Window %d accepted; want an error (dedupe window is %d)", cfg.Window, execWindowBits)
	}

	cfg = base
	cfg.Window = execWindowBits
	cl, err := NewClient(smr.ClientIDBase, cfg)
	if err != nil {
		t.Fatalf("Window %d rejected: %v", execWindowBits, err)
	}
	if cl.Window() != execWindowBits {
		t.Fatalf("Window = %d, want %d", cl.Window(), execWindowBits)
	}

	cfg = base // Window zero still defaults to the closed loop
	cl, err = NewClient(smr.ClientIDBase, cfg)
	if err != nil {
		t.Fatalf("default window rejected: %v", err)
	}
	if cl.Window() != 1 {
		t.Fatalf("default Window = %d, want 1", cl.Window())
	}
}

// TestAdoptCheckpointPrunesDedupe pins the checkpoint fast-forward
// leak: a lagging replica that adopts a checkpoint executes the covered
// requests wholesale through the snapshot, so their per-(client, ts)
// queued markers never passed applyBatch and used to strand forever.
func TestAdoptCheckpointPrunesDedupe(t *testing.T) {
	client := smr.ClientIDBase

	donor := NewReplica(0, regressionConfig(), kv.NewStore())
	for i := 1; i <= 8; i++ {
		b := Batch{Reqs: []Request{{
			Op: kv.PutOp(fmt.Sprintf("k%02d", i), []byte("v")), TS: uint64(i), Client: client,
		}}}
		donor.applyBatch(&b, smr.SeqNum(i), 0)
		donor.ex = smr.SeqNum(i)
	}
	snap := donor.snapshotState()
	proof := CheckpointProof{SN: 8, StateD: crypto.Hash(snap)}

	lag := NewReplica(1, regressionConfig(), kv.NewStore())
	marks := func() (ts []uint64) {
		for _, q := range lag.sessions[client].slots {
			if q.queued != (crypto.Digest{}) {
				ts = append(ts, q.ts)
			}
		}
		return ts
	}
	for i := 1; i <= 9; i++ { // ts 9 is beyond the checkpoint: must survive
		lag.request(lag.session(client), uint64(i)).queued = crypto.Digest{1}
	}
	lag.cfg.CheckpointInterval = 2
	for _, h := range []smr.SeqNum{2, 4, 8} {
		lag.candidate(h).snap = []byte{1}
	}

	lag.adoptCheckpoint(proof, snap)

	if lag.ex != 8 {
		t.Fatalf("fast-forward executed to %d, want 8", lag.ex)
	}
	if got := marks(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("queue marks at timestamps %v after fast-forward, want only the uncovered one (9)", got)
	}
	if n := retainedCandidates(lag); n != 0 {
		t.Fatalf("%d checkpoint candidates held at or below the stable point, want 0", n)
	}
}

// TestPendingSnapshotsBounded pins the passive-replica snapshot leak: a
// passive replica whose lazychk stream is shed kept one full snapshot
// per checkpoint interval forever. The candidate map must stay bounded.
func TestPendingSnapshotsBounded(t *testing.T) {
	cfg := regressionConfig()
	cfg.CheckpointInterval = 1
	r := NewReplica(2, cfg, kv.NewStore()) // id 2 is passive in view 0: no votes sent
	for i := 1; i <= 4*maxPendingSnaps; i++ {
		r.maybeCheckpoint(smr.SeqNum(i))
	}
	snaps := 0
	for _, s := range r.log.slots {
		if s != nil && s.chk != nil && s.chk.snap != nil {
			snaps++
		}
	}
	if snaps > maxPendingSnaps {
		t.Fatalf("%d candidate snapshots retained, cap is %d", snaps, maxPendingSnaps)
	}
	// The newest candidates are the ones a late-stabilizing checkpoint
	// can still use; eviction must discard oldest-first.
	if r.candidate(smr.SeqNum(4*maxPendingSnaps)).snap == nil {
		t.Fatalf("newest candidate was evicted; eviction must be oldest-first")
	}
}

// The three tests below pin the sequence-number admission rule: a
// replica keeps per-sequence state only inside its log window
// (stable checkpoint < sn ≤ execution mark + look-ahead), so a single
// faulty replica naming far sequence numbers — under genuine
// signatures — cannot grow a correct replica's memory. Before the
// rule, each sprayed message left a map entry behind.

// sprayCount is how many distinct sequence numbers the faulty replica
// names; the retained state must not scale with it.
const sprayCount = 4000

func boundedReplica(t *testing.T, id smr.NodeID, cfg Config) (*Replica, *stubEnv) {
	t.Helper()
	r := NewReplica(id, cfg, kv.NewStore())
	env := newStubEnv(id)
	r.Init(env)
	r.Step(smr.Start{})
	return r, env
}

// TestFarCommitsFromFollowerBounded: the view's follower sprays signed
// commit orders at far sequence numbers at the t = 1 primary.
func TestFarCommitsFromFollowerBounded(t *testing.T) {
	cfg := regressionConfig()
	suite := cfg.Suite.(*crypto.Meter)
	r, _ := boundedReplica(t, 0, cfg) // primary of view 0; s1 is the follower
	before := suite.Total().Verifies
	for i := 0; i < sprayCount; i++ {
		sn := smr.SeqNum(1000 + 7*i)
		o := signOrder(suite, KindCommit, crypto.Digest{1}, sn, 0, 1, crypto.Digest{})
		r.Step(smr.Recv{From: 1, Msg: &MsgCommit{Order: o}})
	}
	if n := retainedSlots(r); n > int(r.log.ahead) {
		t.Fatalf("%d sequence numbers retained after %d far commits, window is %d", n, sprayCount, r.log.ahead)
	}
	if v := suite.Total().Verifies - before; v != 0 {
		t.Fatalf("%d signature checks spent on commits outside the log window, want 0", v)
	}
	if r.View() != 0 {
		t.Fatalf("far commits drove the primary to view %d", r.View())
	}
}

// TestChkptSprayFromPassiveBounded: a passive replica sprays signed
// checkpoint records at arbitrary heights at an active one.
func TestChkptSprayFromPassiveBounded(t *testing.T) {
	cfg := regressionConfig()
	cfg.CheckpointInterval = 8
	suite := cfg.Suite
	r, _ := boundedReplica(t, 0, cfg) // s2 is passive in view 0
	for i := 0; i < sprayCount; i++ {
		rec := ChkptRecord{SN: smr.SeqNum(1 + 3*i), View: 0, StateD: crypto.Digest{byte(i)}, From: 2}
		rec.Sig = suite.Sign(2, rec.SigPayload())
		r.Step(smr.Recv{From: 2, Msg: &MsgChkpt{Rec: rec}})
	}
	heights := int(r.log.ahead / smr.SeqNum(cfg.CheckpointInterval))
	if n := retainedCandidates(r); n > heights {
		t.Fatalf("%d checkpoint candidates retained after %d sprayed records, the window holds %d heights", n, sprayCount, heights)
	}
	if n := retainedSlots(r); n > int(r.log.ahead) {
		t.Fatalf("%d sequence numbers retained, window is %d", n, r.log.ahead)
	}
}

// TestLazyCommitsAboveHoleBounded: a passive replica that missed one
// lazily replicated entry receives every later one. None can ever
// execute here — the hole only closes through a view change's state
// transfer — so only the window's worth may be kept.
func TestLazyCommitsAboveHoleBounded(t *testing.T) {
	cfg := regressionConfig()
	suite := cfg.Suite
	r, _ := boundedReplica(t, 2, cfg) // passive in view 0
	for i := 0; i < sprayCount; i++ {
		sn := smr.SeqNum(2 + i) // sn 1 never arrives
		batch := Batch{Reqs: []Request{signedReq(suite, smr.ClientIDBase, uint64(sn), kv.PutOp("k", []byte("v")))}}
		m0 := signOrder(suite, KindCommit, batch.Digest(), sn, 0, 0, crypto.Digest{})
		m1 := signOrder(suite, KindCommit, batch.Digest(), sn, 0, 1, crypto.Digest{})
		entry := CommitEntry{Batch: batch, Primary: m0, Commits: []Order{m1}}
		r.Step(smr.Recv{From: 1, Msg: &MsgLazyCommit{Entry: entry}})
	}
	if r.Executed() != 0 {
		t.Fatalf("executed to %d across the hole at sn 1", r.Executed())
	}
	if n := retainedSlots(r); n > int(r.log.ahead) {
		t.Fatalf("%d entries retained above the hole after %d lazy commits, window is %d", n, sprayCount, r.log.ahead)
	}
	if _, ok := r.CommitLogEntry(2); !ok {
		t.Fatalf("the entry right above the hole was not kept; in-window lazy commits must still be stored")
	}
}

// TestFarPrepareFromExPrimaryBounded pins the bound on what a view
// change selects from prepare logs. With fault detection a prepare
// entry is valid under the old primary's signature alone, and the new
// group fills every hole below the highest selected sequence number
// with a no-op it then signs and executes: before the bound, one faulty
// ex-primary naming a far sequence number made every replica of the new
// view allocate and sign that many entries.
func TestFarPrepareFromExPrimaryBounded(t *testing.T) {
	cfg := regressionConfig()
	cfg.EnableFD = true
	r, _ := boundedReplica(t, 2, cfg) // view 1 is {s0, s2}; s0 was view 0's primary too
	r.enterView(1)
	rec := r.collecting()
	if rec == nil {
		t.Fatal("replica 2 is not in the view change to view 1")
	}

	const far = 50_000
	prepared := func(sn smr.SeqNum) PrepareEntry {
		return PrepareEntry{Primary: signOrder(cfg.Suite, KindCommit, new(Batch).Digest(), sn, 0, 0, crypto.Digest{})}
	}
	rec.union = []*MsgViewChange{{NewView: 1, From: 0, PrepareLog: []PrepareEntry{prepared(2), prepared(far)}}}
	r.computeSelection()

	// sn 2 is within the log window of the (empty) committed prefix and
	// is selected, with a no-op at sn 1 below it; the far entry is not.
	if len(rec.selection) != 2 {
		t.Fatalf("selected %d entries, want 2 up to sn 2: the prepare entry at sn %d must be ignored", len(rec.selection), far)
	}
	if e := rec.selection[1]; !e.FromPrepare || !rec.selection[0].Hole {
		t.Fatalf("want a hole at sn 1 and the prepare entry inside the window at sn 2, got %+v", rec.selection)
	}
}

// The tests below pin the view admission rule and its prune
// (viewlog.go): what a replica keeps per view is bounded however many
// views peers name and however many view changes it lives through.
// Before the view log, messages for future views were buffered with no
// membership check and no cap, entries for skipped views were never
// deleted, and every installed view left its whole agreed set of
// view-change messages — application snapshots included — behind.

// retainedViewState sums what r's view records hold of peers' and its
// own view-change traffic: the messages' wire bytes, and how many of
// the application snapshots they carry are not r's own stable one.
func retainedViewState(r *Replica) (bytes, foreignSnaps int) {
	count := func(vc *MsgViewChange) {
		if len(vc.Snapshot) > 0 && (len(r.chkSnapshot) == 0 || &vc.Snapshot[0] != &r.chkSnapshot[0]) {
			foreignSnaps++
		}
	}
	for _, rec := range r.views {
		for _, vc := range rec.vcs {
			bytes += vc.WireSize()
			count(vc)
		}
		for _, f := range rec.finals {
			bytes += f.WireSize()
			for _, vc := range f.VCSet {
				count(vc)
			}
		}
		for _, vc := range rec.union {
			count(vc)
		}
		if rec.newView != nil {
			bytes += rec.newView.WireSize()
		}
		if len(rec.selSnapshot) > 0 && &rec.selSnapshot[0] != &r.chkSnapshot[0] {
			foreignSnaps++
		}
	}
	return bytes, foreignSnaps
}

// maxViewRecords is the bound viewlog.go states on the number of view
// records, for n replicas.
func maxViewRecords(n int) int { return n*maxFutureViews + suspectMemory + 2 }

// TestFutureViewSprayBounded: one replica sends validly signed
// view-change messages for two hundred far views, a 1 MiB snapshot in
// each.
func TestFutureViewSprayBounded(t *testing.T) {
	cfg := regressionConfig()
	suite := cfg.Suite.(*crypto.Meter)
	r, _ := boundedReplica(t, 0, cfg)
	snap := make([]byte, 1<<20)
	member := 0
	before := suite.Total().Verifies
	for v := smr.View(1000); v < 1200; v++ {
		vc := &MsgViewChange{NewView: v, From: 1, Snapshot: snap}
		vc.Sig = suite.Sign(1, vc.SigPayload())
		r.Step(smr.Recv{From: 1, Msg: vc})
		if InGroup(cfg.N, cfg.T, v, 0) {
			member++
		}
	}
	if got := suite.Total().Verifies - before; got != uint64(member) {
		t.Fatalf("%d signature checks for 200 sprayed views, want %d: one per view whose group includes the receiver, none for the rest", got, member)
	}
	if len(r.views) > maxFutureViews {
		t.Fatalf("%d view records retained for one sender, cap is %d", len(r.views), maxFutureViews)
	}
	if b, _ := retainedViewState(r); b > maxFutureViews*(len(snap)+4096) {
		t.Fatalf("%d bytes of view-change messages retained, cap is %d messages", b, maxFutureViews)
	}
	// Lowest evicted first: the sender's newest message survives.
	newest := smr.View(1199)
	for !InGroup(cfg.N, cfg.T, newest, 0) {
		newest--
	}
	if rec := r.views[newest]; rec == nil || rec.vcs[1] == nil {
		t.Fatalf("the sender's newest view-change message (view %d) was not kept", newest)
	}
	if r.View() != 0 {
		t.Fatalf("one sender's view-change messages drove the replica to view %d", r.View())
	}
}

// TestViewStateBoundedAcrossViewChanges: t = 2, fault detection on, a
// checkpoint every 8 batches, 4 KiB puts, and the primary crashed and
// recovered twenty times over.
func TestViewStateBoundedAcrossViewChanges(t *testing.T) {
	c := newCluster(t, clusterOpts{
		t: 2, clients: 2, reqTimeout: 300 * time.Millisecond,
		cfgMod: func(id smr.NodeID, cfg *Config) {
			cfg.EnableFD = true
			cfg.CheckpointInterval = 8
		},
	})
	stopped := false
	for ci, cl := range c.clients {
		i, val := 0, make([]byte, 4096)
		put := func() { i++; cl.Invoke(kv.PutOp(fmt.Sprintf("k-%d-%d", ci, i%64), val)) }
		cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) {
			if !stopped {
				put()
			}
		}
		c.net.At(0, put)
	}
	c.run(time.Second)
	installs := 0
	for round := 0; round < 20; round++ {
		from := c.replicas[1].View()
		primary := Primary(c.n, c.tf, from)
		c.net.Crash(primary)
		c.run(2 * time.Second)
		c.net.Recover(primary)
		c.run(time.Second)
		if c.replicas[1].View() > from {
			installs++
		}
	}
	stopped = true
	c.run(3 * time.Second)
	if installs < 20 {
		t.Fatalf("only %d of 20 crash rounds changed the view", installs)
	}
	for _, r := range c.replicas {
		if r.InViewChange() {
			t.Fatalf("replica %d still mid view change at view %d", r.id, r.view)
		}
		if r.chk.SN == 0 {
			t.Fatalf("replica %d never stabilized a checkpoint", r.id)
		}
		if b, snaps := retainedViewState(r); snaps != 0 || b != 0 {
			t.Errorf("replica %d retains %d bytes of view-change messages and %d snapshots other than its stable checkpoint's", r.id, b, snaps)
		}
		if len(r.views) > maxViewRecords(c.n) {
			t.Errorf("replica %d holds %d view records after %d view changes, bound is %d", r.id, len(r.views), installs, maxViewRecords(c.n))
		}
	}
	c.checkLemma1()
}

// TestSkippedViewsLeaveNothingBuffered: messages buffered for a view
// the replica then skips go when it passes that view.
func TestSkippedViewsLeaveNothingBuffered(t *testing.T) {
	cfg := regressionConfig()
	suite := cfg.Suite
	r, _ := boundedReplica(t, 2, cfg) // view 1 is {s0, s2}, s0 its primary
	vc := &MsgViewChange{NewView: 1, From: 0, Snapshot: make([]byte, 1024)}
	vc.Sig = suite.Sign(0, vc.SigPayload())
	final := &MsgVCFinal{NewView: 1, From: 0, VCSet: []*MsgViewChange{vc}}
	final.Sig = suite.Sign(0, final.SigPayload())
	nv := &MsgNewView{NewView: 1, From: 0}
	nv.Sig = suite.Sign(0, nv.SigPayload())
	for _, m := range []smr.Message{vc, final, nv} {
		r.Step(smr.Recv{From: 0, Msg: m})
	}
	if rec := r.views[1]; rec == nil || rec.vcs[0] == nil || rec.finals[0] == nil || rec.newView == nil {
		t.Fatalf("view 1's messages were not buffered while view 1 was ahead: %+v", rec)
	}
	var signer smr.NodeID
	for !InGroup(cfg.N, cfg.T, 4, signer) || signer == 2 {
		signer++
	}
	sus := &MsgSuspect{View: 4, From: signer}
	sus.Sig = suite.Sign(crypto.NodeID(signer), sus.SigPayload())
	r.Step(smr.Recv{From: signer, Msg: sus})
	if r.View() < 5 {
		t.Fatalf("replica at view %d after a suspect of view 4", r.View())
	}
	for v, rec := range r.views {
		if v < r.View() && (len(rec.vcs)+len(rec.finals) > 0 || rec.newView != nil) {
			t.Errorf("view %d was skipped (now at %d) and still buffers %d view-change, %d vc-final messages, new-view %v",
				v, r.View(), len(rec.vcs), len(rec.finals), rec.newView != nil)
		}
	}
}

// TestBufferedViewChangeCompletesOnEntry: what arrived for a view while
// it was ahead is what the replica collects once it enters that view.
// s2 holds s0's view-change, vc-final and new-view for view 1 before it
// hears of any suspicion; entering view 1 and letting the 2Δ timer
// expire installs the view with no further message.
func TestBufferedViewChangeCompletesOnEntry(t *testing.T) {
	cfg := regressionConfig()
	suite := cfg.Suite
	r, env := boundedReplica(t, 2, cfg) // view 1 is {s0, s2}, s0 its primary
	vc := &MsgViewChange{NewView: 1, From: 0}
	vc.Sig = suite.Sign(0, vc.SigPayload())
	final := &MsgVCFinal{NewView: 1, From: 0, VCSet: []*MsgViewChange{vc}}
	final.Sig = suite.Sign(0, final.SigPayload())
	nv := &MsgNewView{NewView: 1, From: 0}
	nv.Sig = suite.Sign(0, nv.SigPayload())
	sus := &MsgSuspect{View: 0, From: 0}
	sus.Sig = suite.Sign(0, sus.SigPayload())
	for _, m := range []smr.Message{vc, final, nv, sus} {
		r.Step(smr.Recv{From: 0, Msg: m})
	}
	if rec := r.collecting(); r.View() != 1 || rec == nil || len(rec.vcs) != 2 {
		t.Fatalf("at view %d, collecting %v: want view 1 collecting s0's buffered view-change message and our own", r.View(), rec)
	}
	id, ok := env.lastTimer("vc-net")
	if !ok {
		t.Fatal("no 2Δ timer armed on entering view 1")
	}
	r.Step(smr.TimerFired{ID: id, Kind: "vc-net"})
	if r.InViewChange() || r.preView != 1 {
		t.Fatalf("view 1 not installed from the buffered messages (in view change: %v, last installed %d)", r.InViewChange(), r.preView)
	}
}

// TestOldSuspectNotRegossiped: a ⟨suspect⟩ of a view more than
// suspectMemory behind costs nothing and is not relayed; one inside
// that memory is relayed once.
func TestOldSuspectNotRegossiped(t *testing.T) {
	cfg := regressionConfig()
	suite := cfg.Suite.(*crypto.Meter)
	r, env := boundedReplica(t, 0, cfg)
	suspectOf := func(v smr.View) *MsgSuspect {
		var signer smr.NodeID
		for !InGroup(cfg.N, cfg.T, v, signer) || signer == 0 {
			signer++
		}
		m := &MsgSuspect{View: v, From: signer}
		m.Sig = suite.Sign(crypto.NodeID(signer), m.SigPayload())
		return m
	}
	r.Step(smr.Recv{From: 1, Msg: suspectOf(29)})
	if r.View() < 30 {
		t.Fatalf("replica at view %d after a suspect of view 29", r.View())
	}
	step := func(m *MsgSuspect) (sends int, verifies uint64) {
		s, v := len(env.sent), suite.Total().Verifies
		r.Step(smr.Recv{From: m.From, Msg: m})
		return len(env.sent) - s, suite.Total().Verifies - v
	}
	old := r.View() - suspectMemory - 1
	if sends, verifies := step(suspectOf(old)); sends != 0 || verifies != 0 || r.views[old] != nil {
		t.Fatalf("a suspect of view %d (now at %d) cost %d sends and %d signature checks and left a record: %v; want nothing",
			old, r.View(), sends, verifies, r.views[old] != nil)
	}
	recent := suspectOf(r.View() - 2)
	if sends, _ := step(recent); sends != cfg.N-1 {
		t.Fatalf("a suspect of a recent view was relayed to %d replicas, want %d", sends, cfg.N-1)
	}
	if sends, verifies := step(recent); sends != 0 || verifies != 0 {
		t.Fatalf("the same suspect again cost %d sends and %d signature checks, want none", sends, verifies)
	}
	if len(r.views) > maxViewRecords(cfg.N) {
		t.Fatalf("%d view records, bound is %d", len(r.views), maxViewRecords(cfg.N))
	}
}

// TestForkIIQueryConvictsForgedPrepare drives Algorithm 6 lines 12–16:
// s0, primary of the installed view 1, replaces prepare-log entries of
// that view with batches of its own — genuinely signed, so nothing but
// a member of view 1's group checking them against what view 1's view
// change selected can tell. s2 is asked, and convicts; it still does
// after it has left view 1, which pruned everything but the selected
// digests.
func TestForkIIQueryConvictsForgedPrepare(t *testing.T) {
	c := fdCluster(t, 1)
	ops := make([][]byte, 4)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(2 * time.Second)
	c.net.At(c.net.Now(), func() { c.replicas[1].suspect(0) })
	c.run(3 * time.Second)
	s0, s2 := c.replicas[0], c.replicas[2]
	if *done != len(ops) || s2.View() != 1 || s2.InViewChange() || s2.preView != 1 {
		t.Fatalf("setup: %d/%d commits, s2 at view %d (installed %d)", *done, len(ops), s2.View(), s2.preView)
	}
	query := func(sn smr.SeqNum) *MsgForkIIQuery {
		return &MsgForkIIQuery{View: 2, OldView: 1, Culprit: 0, SN: sn, Evidence: s0.buildViewChange(2)}
	}
	c.net.At(c.net.Now(), func() {
		s2.Step(smr.Recv{From: 1, Msg: query(2)})
		if d := c.anyDetection(); d != "" {
			t.Errorf("an honest prepare log was convicted: %s", d)
		}
		for _, sn := range []smr.SeqNum{2, 3} {
			forged := Batch{Reqs: []Request{signedReq(c.suite, 1500, uint64(sn), kv.PutOp("evil", []byte("e")))}}
			if !s0.InjectForkPrepare(sn, forged) {
				t.Errorf("fork injection at sn %d failed", sn)
			}
		}
		// Anyone can send a query: evidence the culprit did not sign
		// convicts nobody.
		unsigned := query(2)
		unsigned.Evidence.Sig = make(crypto.Signature, len(unsigned.Evidence.Sig))
		s2.Step(smr.Recv{From: 1, Msg: unsigned})
		if d := c.anyDetection(); d != "" {
			t.Errorf("a prepare log its sender did not sign was convicted: %s", d)
		}
		s2.Step(smr.Recv{From: 1, Msg: query(2)})
		if !c.hasDetection(2, "fork-ii", 0) {
			t.Errorf("forged prepare at sn 2 not convicted: %v", c.detections)
		}
		c.detections[2] = nil
		s2.suspect(1) // s2 enters view 2, which prunes view 1's record
		if b, snaps := retainedViewState(s2); s2.views[1] == nil || snaps != 0 {
			t.Errorf("after leaving view 1 s2 keeps its record: %v, %d bytes of messages, %d foreign snapshots; want the record and no snapshot",
				s2.views[1] != nil, b, snaps)
		}
		s2.Step(smr.Recv{From: 1, Msg: query(3)})
		if !c.hasDetection(2, "fork-ii", 0) {
			t.Errorf("forged prepare at sn 3 not convicted after s2 left view 1: %v", c.detections)
		}
	})
	c.run(time.Second)
}

// TestEmptyReplyCommitsOnFastPath: at t ≥ 2 the client commits on t+1
// matching votes once one of them carried the reply itself, and an
// application may reply with no bytes at all. Whether a vote carried
// the reply must not hang on the slice being non-nil: the replies here
// go through the codec as they do over TCP, and are also fed as a
// replica hands them over in the simulator (empty, then nil).
func TestEmptyReplyCommitsOnFastPath(t *testing.T) {
	const tf = 2
	suite := crypto.NewSimSuite(1)
	for _, tc := range []struct {
		name  string
		rep   []byte
		coded bool
	}{{"over the wire", []byte{}, true}, {"by pointer, empty", []byte{}, false}, {"by pointer, nil", nil, false}} {
		env := &clientEnv{id: smr.ClientIDBase}
		c := newHealthTestClient(t, env, tf)
		commits := 0
		c.cfg.OnCommit = func(op, rep []byte, _ time.Duration) {
			if commits++; len(rep) != 0 {
				t.Errorf("%s: committed reply %x, want none", tc.name, rep)
			}
		}
		c.Invoke(kv.PutOp("k", nil))
		ts := env.sends[0].m.(*MsgReplicate).Req.TS

		mac := func(from smr.NodeID, payload []byte) crypto.MAC {
			return suite.MAC(crypto.NodeID(from), crypto.NodeID(env.id), payload)
		}
		group := SyncGroup(2*tf+1, tf, 0)
		votes := make([]smr.Message, len(group))
		full := &MsgReply{From: group[0], SN: 1, TS: ts, Rep: tc.rep}
		full.MAC = mac(full.From, full.MACPayload())
		votes[0] = full
		for i, id := range group[1:] {
			d := &MsgReplyDigest{From: id, SN: 1, TS: ts, RepDigest: crypto.Hash(nil)}
			d.MAC = mac(id, d.MACPayload())
			votes[i+1] = d
		}
		for i, m := range votes {
			if tc.coded {
				enc, err := MarshalMessage(m)
				if err != nil {
					t.Fatal(err)
				}
				if m, err = DecodeMessage(enc); err != nil {
					t.Fatal(err)
				}
			}
			c.Step(smr.Recv{From: group[i], Msg: m})
		}
		if commits != 1 {
			t.Errorf("%s: %d commits after t+1 matching votes, want 1", tc.name, commits)
		}
	}
}

// The two tests below pin the session window (sessions.go): what a
// replica keeps per client is bounded by one window of timestamps, and
// per request by the rule that opens a slot. Before the session table a
// client that had 65 requests watched lost the first one's cached reply
// to the 65th's execution — the watch expired and a correct primary was
// suspected — and a ⟨reply-sign⟩ opened a watch for whatever pair it
// named, whoever sent it.

// rawNode is a network endpoint that only ever sends what a test tells
// it to.
type rawNode struct{ env smr.Env }

func (n *rawNode) Init(env smr.Env) { n.env = env }
func (n *rawNode) Step(smr.Event)   {}

// openRequests counts the requests r holds open and its watch timers.
func openRequests(r *Replica) (open, timers int) {
	for _, s := range r.sessions {
		open += s.open
	}
	return open, len(r.watchTimers)
}

// TestSilentClientBeyondWindowKeepsView: a client re-sends K distinct
// timestamps to both active replicas once and goes silent.
func TestSilentClientBeyondWindowKeepsView(t *testing.T) {
	for _, k := range []uint64{65, 200, 400} {
		c := newCluster(t, clusterOpts{})
		id := smr.ClientIDBase
		raw := &rawNode{}
		c.net.AddNode(id, raw)
		c.net.At(0, func() {
			for ts := uint64(1); ts <= k; ts++ {
				req := signedReq(c.suite, id, ts, kv.PutOp(fmt.Sprintf("k%d", ts), []byte("v")))
				for _, a := range SyncGroup(c.n, c.tf, 0) {
					raw.env.Send(a, &MsgResend{Req: req})
				}
			}
		})
		c.run(20 * time.Second)
		for _, r := range c.replicas {
			if r.View() != 0 {
				t.Errorf("K=%d: replica %d moved to view %d; every admitted request made progress", k, r.id, r.View())
			}
			if open, timers := openRequests(r); open != 0 || timers != 0 {
				t.Errorf("K=%d: replica %d still holds %d open requests and %d watch timers", k, r.id, open, timers)
			}
			// One window's worth was admitted, the rest refused: each of
			// the first executed exactly once, everywhere.
			if got := len(c.commits[r.id]); got != execWindowBits {
				t.Errorf("K=%d: replica %d committed %d distinct requests, want %d", k, r.id, got, execWindowBits)
			}
			for key, cms := range c.commits[r.id] {
				if key.TS > execWindowBits || len(cms) != 1 {
					t.Errorf("K=%d: replica %d committed timestamp %d %d times", k, r.id, key.TS, len(cms))
				}
			}
		}
	}
}

// TestReplySignFloodBounded: a replica sends 20,000 validly signed
// reply-sign records for made-up (client, timestamp) pairs over four
// seconds. From replica 2, passive in view 0, they are dropped before
// the signature check; from the follower they open what one signer may.
func TestReplySignFloodBounded(t *testing.T) {
	const total, bound = 20000, maxStrangers * execWindowBits
	for _, sender := range []smr.NodeID{2, 1} {
		c := newCluster(t, clusterOpts{reqTimeout: 5 * time.Second})
		for i := 0; i < total; i++ {
			c.net.At(time.Duration(i)*4*time.Second/total, func() {
				rs := ReplySig{From: sender, SN: 1, TS: uint64(1 + i), Client: smr.ClientIDBase + smr.NodeID(i%977), RepDigest: crypto.Digest{1}}
				rs.Sig = c.suite.Sign(crypto.NodeID(sender), rs.SigPayload())
				for _, a := range SyncGroup(c.n, c.tf, 0) {
					if a != sender {
						c.replicas[sender].env.Send(a, &MsgReplySign{R: rs})
					}
				}
			})
		}
		for sample := 0; sample < 80; sample++ {
			c.run(100 * time.Millisecond)
			for _, a := range SyncGroup(c.n, c.tf, 0) {
				r := c.replicas[a]
				open, timers := openRequests(r)
				if open > bound || timers > bound || len(r.sessions) > maxStrangers {
					t.Fatalf("sender %d, at %v: replica %d holds %d open requests, %d watch timers (bound %d) in %d sessions (bound %d)",
						sender, c.net.Now(), a, open, timers, bound, len(r.sessions), maxStrangers)
				}
				if v := r.suite.(*crypto.Meter).Total().Verifies; sender == 2 && v > bound {
					t.Fatalf("at %v replica %d has spent %d signature checks on the flood; bound is %d: a record from outside the group is dropped before the check",
						c.net.Now(), a, v, bound)
				}
			}
		}
		if c.replicas[0].View() != 0 {
			t.Fatalf("sender %d: the flood drove the primary to view %d", sender, c.replicas[0].View())
		}
	}
}
