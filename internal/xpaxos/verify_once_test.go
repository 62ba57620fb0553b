package xpaxos

import (
	"fmt"
	"testing"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// TestClientVerifiesFollowerCommitOncePerBatch: at t = 1 every reply of
// a batch carries the follower's one signed commit (m1). A client with
// k requests in the batch checks that signature once, while each reply
// still passes its own MAC and Merkle-inclusion checks. A reply for the
// same (view, sn) whose m1 differs in its root or its signature is
// checked afresh, rejected and not committed.
func TestClientVerifiesFollowerCommitOncePerBatch(t *testing.T) {
	const k = 5
	suite := crypto.NewSimSuite(1)
	meter := crypto.NewMeter(suite)
	id := smr.ClientIDBase
	c, err := NewClient(id, ClientConfig{N: 3, T: 1, Suite: meter, Window: k + 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Init(newStubEnv(id))
	for i := 0; i < k+1; i++ {
		c.Invoke(kv.PutOp(fmt.Sprintf("k%d", i), []byte("v")))
	}

	// One batch holding the first k requests, committed in view 0 at
	// sn 1: replica 0 is the primary, replica 1 the follower.
	const sn, view = smr.SeqNum(1), smr.View(0)
	tss := make([]uint64, k)
	reps := make([][]byte, k)
	digs := make([]crypto.Digest, k)
	for i := range tss {
		tss[i], reps[i] = uint64(i+1), []byte(fmt.Sprintf("reply %d", i+1))
		digs[i] = crypto.Hash(reps[i])
	}
	root, proofs := crypto.MerkleTree(ReplyLeaves(tss, digs))
	m1 := signOrder(suite, KindCommit, crypto.Hash([]byte("batch")), sn, view, 1, root)
	reply := func(ts uint64, rep []byte, proof crypto.MerkleProof, fc Order) *MsgReply {
		m := &MsgReply{From: 0, SN: sn, View: view, TS: ts, Rep: rep, Proof: proof, FollowerCommit: &fc}
		m.MAC = suite.MAC(0, crypto.NodeID(id), m.MACPayload())
		return m
	}

	for i := range tss {
		// Each reply arrives decoded on its own, with its own copy of m1.
		fc := m1
		fc.Sig = append(crypto.Signature(nil), m1.Sig...)
		c.Step(smr.Recv{From: 0, Msg: reply(tss[i], reps[i], proofs[i], fc)})
	}
	tot := meter.Total()
	if c.Committed != k || tot.Verifies != 1 || tot.MACVerifies != k {
		t.Fatalf("after %d replies of one batch: committed %d, %d signature and %d MAC checks; want %d, 1 and %d",
			k, c.Committed, tot.Verifies, tot.MACVerifies, k, k)
	}

	// Request k+1 is outside the batch. Claims for it under the same
	// (view, sn) with an altered root or an altered signature are
	// checked, fail and commit nothing.
	last := uint64(k + 1)
	altered := m1
	altered.RepRoot[0] ^= 1
	forged := m1
	forged.Sig = append(crypto.Signature(nil), m1.Sig...)
	forged.Sig[0] ^= 1
	for i, fc := range []Order{altered, forged} {
		c.Step(smr.Recv{From: 0, Msg: reply(last, []byte("forged"), proofs[0], fc)})
		if got := meter.Total().Verifies; got != uint64(2+i) {
			t.Errorf("altered m1 #%d: %d signature checks in all, want %d", i, got, 2+i)
		}
		if c.Committed != k {
			t.Fatalf("altered m1 #%d committed request %d", i, last)
		}
	}
}

// TestPrimaryVerifiesEachRequestOnce: a request whose signature the
// primary checked at admission — under queue pressure, or as a second
// copy of a queued timestamp — is not checked again in its batch, so a
// deep queue costs one verification per admitted request.
func TestPrimaryVerifiesEachRequestOnce(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	meter := crypto.NewMeter(suite)
	cfg := Config{N: 3, T: 1, Suite: meter, BatchSize: 8, PipelineWindow: 2, IntakeQueueCap: 256}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	// Two fillers occupy the pipeline window, so the client's requests
	// queue: the first verifyPressureDepth unverified, the rest
	// verified inline.
	for i := 0; i < 2; i++ {
		req := signedReq(suite, smr.ClientIDBase+smr.NodeID(10+i), 1, kv.PutOp("f", []byte("v")))
		r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	client := smr.ClientIDBase
	const sent = 30
	for ts := uint64(1); ts <= sent; ts++ {
		req := signedReq(suite, client, ts, kv.PutOp("a", []byte("v")))
		r.Step(smr.Recv{From: client, Msg: &MsgReplicate{Req: req}})
	}
	// A second, genuine copy of a queued timestamp is verified inline
	// and queued beside the first.
	second := signedReq(suite, client, 3, kv.PutOp("b", []byte("v")))
	r.Step(smr.Recv{From: client, Msg: &MsgReplicate{Req: second}})
	if got, want := meter.Total().Verifies, uint64(2+sent-verifyPressureDepth+1); got != want {
		t.Fatalf("%d verifications before the queue drains, want %d (2 fillers, %d under pressure, 1 second copy)",
			got, want, sent-verifyPressureDepth)
	}

	// Open the window and drain everything into batches (four of
	// eight, all inside the sequence log's window).
	r.cfg.PipelineWindow = 64
	for i := 0; i < 4; i++ {
		r.flushBatches(true)
	}
	st := r.IntakeStats()
	if st.Queued != 0 || st.PressureDropped != 0 {
		t.Fatalf("queued %d, pressure-dropped %d after draining; want 0 and 0", st.Queued, st.PressureDropped)
	}
	batched := 0
	for _, s := range env.sent {
		if m, ok := s.msg.(*MsgCommitReq); ok {
			batched += len(m.Entry.Batch.Reqs)
		}
	}
	if batched != int(st.Admitted) {
		t.Fatalf("%d requests reached batches, %d were admitted", batched, st.Admitted)
	}
	if got := meter.Total().Verifies; got != st.Admitted {
		t.Errorf("%d request verifications for %d admitted requests, want one each", got, st.Admitted)
	}
}
