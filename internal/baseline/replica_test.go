package baseline

import (
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// heldEnv is an smr.Env stub whose Defer parks the job until release,
// modeling a verification pool that has stalled.
type heldEnv struct {
	id     smr.NodeID
	timers smr.TimerID
	sent   []smr.Message
	held   []func() // work+apply of parked Defer jobs
}

func (e *heldEnv) ID() smr.NodeID                   { return e.id }
func (e *heldEnv) Now() time.Duration               { return 0 }
func (e *heldEnv) Send(_ smr.NodeID, m smr.Message) { e.sent = append(e.sent, m) }
func (e *heldEnv) CancelTimer(smr.TimerID)          {}
func (e *heldEnv) SetTimer(time.Duration, string) smr.TimerID {
	e.timers++
	return e.timers
}
func (e *heldEnv) Defer(_ string, work, apply func()) {
	e.held = append(e.held, func() { work(); apply() })
}

// release runs every parked job, including ones parked meanwhile.
func (e *heldEnv) release() {
	for len(e.held) > 0 {
		job := e.held[0]
		e.held = e.held[1:]
		job()
	}
}

// soloReplica is the smallest protocol on the kit: a one-replica group
// whose leader decides every batch the moment it is cut.
func soloReplica(t *testing.T, cfg Config, env smr.Env) (*Core, *kv.Store, *int) {
	t.Helper()
	store := kv.NewStore()
	replies := new(int)
	var c *Core
	var sn smr.SeqNum
	reply := func(smr.NodeID, uint64, []byte) { *replies++ }
	c = NewCore(0, cfg.WithDefaults(2), testDomain, store, Hooks{
		Recv:    func(smr.NodeID, smr.Message) {},
		Resend:  reply,
		Suspect: func() {},
		Propose: func(b Batch) {
			sn++
			c.Execute(&Entry{SN: sn, Batch: b}, reply)
		},
	})
	c.Init(env)
	return c, store, replies
}

func signedRequest(suite crypto.Suite, client smr.NodeID, ts uint64, op []byte) *MsgRequest {
	req := Request{Op: op, TS: ts, Client: client}
	w := wire.New(64)
	testDomain.AppendSigPayload(w, &req)
	req.Sig = suite.Sign(crypto.NodeID(client), w.Done())
	return &MsgRequest{Req: req}
}

// TestIntakeQueuesAreBounded sprays 10k signed requests at a leader
// whose verification pool is held: the verify backlog must stop at
// QueueCap (drop-newest, counted), and once verification resumes every
// request that was queued still commits.
func TestIntakeQueuesAreBounded(t *testing.T) {
	suite := crypto.NewSimSuite(7)
	env := &heldEnv{}
	c, store, replies := soloReplica(t, Config{N: 1, Suite: suite, SignedRequests: true}, env)

	const spray = 10000
	for i := 0; i < spray; i++ {
		client := smr.ClientIDBase + smr.NodeID(i)
		c.Step(smr.Recv{From: client, Msg: signedRequest(suite, client, 1, kv.PutOp("k", []byte("v")))})
		if len(c.unverified) > QueueCap {
			t.Fatalf("verify backlog reached %d, cap is %d", len(c.unverified), QueueCap)
		}
	}
	// The first request went straight into the in-flight round; the
	// next QueueCap queued behind it; the rest were shed.
	queued := 1 + QueueCap
	if got, want := c.Dropped, uint64(spray-queued); got != want {
		t.Fatalf("dropped %d requests, want %d", got, want)
	}
	if *replies != 0 {
		t.Fatalf("%d requests committed while verification was held", *replies)
	}

	env.release()
	// Batches cut while full; the partial tail waits for the batch timer.
	c.Step(smr.TimerFired{ID: c.batchTimer, Kind: "batch"})
	if *replies != queued {
		t.Fatalf("%d of %d queued requests committed after verification resumed", *replies, queued)
	}
	if _, ok := store.Get("k"); !ok {
		t.Fatal("queued requests did not execute")
	}
}

// TestElectionBacklogIsBounded covers the second queue: verified
// requests waiting out a leader change stop at QueueCap and are
// proposed once the protocol flushes.
func TestElectionBacklogIsBounded(t *testing.T) {
	env := &heldEnv{}
	c, _, replies := soloReplica(t, Config{N: 1, Suite: crypto.NewSimSuite(7)}, env)
	c.Electing = true
	const spray = 10000
	for i := 0; i < spray; i++ {
		client := smr.ClientIDBase + smr.NodeID(i)
		c.Step(smr.Recv{From: client, Msg: &MsgRequest{Req: Request{Op: kv.GetOp("k"), TS: 1, Client: client}}})
	}
	if len(c.pending) != QueueCap || c.Dropped != spray-QueueCap {
		t.Fatalf("election backlog %d (dropped %d), want %d (dropped %d)", len(c.pending), c.Dropped, QueueCap, spray-QueueCap)
	}
	c.Electing = false
	for len(c.pending) > 0 {
		c.Flush()
	}
	if *replies != QueueCap {
		t.Fatalf("%d of %d backlogged requests committed after the election", *replies, QueueCap)
	}
}

// TestBadSignatureIsDropped pins that verification filters per request:
// a forged request in a round does not take its neighbours down.
func TestBadSignatureIsDropped(t *testing.T) {
	suite := crypto.NewSimSuite(7)
	env := &heldEnv{}
	c, _, replies := soloReplica(t, Config{N: 1, Suite: suite, BatchSize: 1, SignedRequests: true}, env)
	good := signedRequest(suite, smr.ClientIDBase, 1, kv.GetOp("k"))
	forged := signedRequest(suite, smr.ClientIDBase+1, 1, kv.GetOp("k"))
	forged.Req.Op = kv.GetOp("other")
	c.Step(smr.Recv{From: smr.ClientIDBase + 2, Msg: signedRequest(suite, smr.ClientIDBase+2, 1, kv.GetOp("k"))})
	c.Step(smr.Recv{From: smr.ClientIDBase + 1, Msg: forged})
	c.Step(smr.Recv{From: smr.ClientIDBase, Msg: good})
	env.release()
	if *replies != 2 {
		t.Fatalf("%d requests committed, want the 2 with valid signatures", *replies)
	}
}
