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
	for i := 1; i <= 9; i++ { // ts 9 is beyond the checkpoint: must survive
		lag.queued[watchKey{Client: client, TS: uint64(i)}] = crypto.Digest{}
	}
	lag.cfg.CheckpointInterval = 2
	for _, h := range []smr.SeqNum{2, 4, 8} {
		lag.candidate(h).snap = []byte{1}
	}

	lag.adoptCheckpoint(proof, snap)

	if lag.ex != 8 {
		t.Fatalf("fast-forward executed to %d, want 8", lag.ex)
	}
	if len(lag.queued) != 1 {
		t.Fatalf("queued holds %d markers after fast-forward, want 1 (only the uncovered ts)", len(lag.queued))
	}
	if _, ok := lag.queued[watchKey{Client: client, TS: 9}]; !ok {
		t.Fatalf("the uncovered marker (ts 9) was pruned")
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
	st := r.vcState
	if st == nil {
		t.Fatal("replica 2 is not in the view change to view 1")
	}

	const far = 50_000
	prepared := func(sn smr.SeqNum) PrepareEntry {
		return PrepareEntry{Primary: signOrder(cfg.Suite, KindCommit, new(Batch).Digest(), sn, 0, 0, crypto.Digest{})}
	}
	vc := &MsgViewChange{NewView: 1, From: 0, PrepareLog: []PrepareEntry{prepared(2), prepared(far)}}
	st.union[vcKey{From: 0, D: vc.contentDigest()}] = vc
	r.computeSelection()

	// sn 2 is within the log window of the (empty) committed prefix and
	// is selected, with a no-op at sn 1 below it; the far entry is not.
	if st.selMax != 2 || len(st.selection) != 2 {
		t.Fatalf("selected %d entries up to sn %d, want 2 up to sn 2: the prepare entry at sn %d must be ignored",
			len(st.selection), st.selMax, far)
	}
	if e := st.selection[2]; e == nil || !e.FromPrepare {
		t.Fatalf("the prepare entry inside the window (sn 2) was not selected: %+v", e)
	}
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
