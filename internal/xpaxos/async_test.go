package xpaxos

import (
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
)

// asyncEnv is a stubEnv whose Defer parks completions until the test
// releases them, so tests can interleave arbitrary events — most
// importantly a view change — between a handler's dispatch half and
// its complete half. The work function runs at dispatch (its inputs
// are captured then); only the apply is delayed.
type asyncEnv struct {
	stubEnv
	pending []pendingJob
}

type pendingJob struct {
	kind  string
	apply func()
}

func newAsyncEnv(id smr.NodeID) *asyncEnv {
	return &asyncEnv{stubEnv: *newStubEnv(id)}
}

func (e *asyncEnv) Defer(kind string, work func(), apply func()) {
	work()
	e.pending = append(e.pending, pendingJob{kind: kind, apply: apply})
}

// kinds lists the pending completions' kinds, in dispatch order.
func (e *asyncEnv) kinds() []string {
	out := make([]string, len(e.pending))
	for i := range e.pending {
		out[i] = e.pending[i].kind
	}
	return out
}

// releaseIdx delivers pending completion i into r's Step.
func (e *asyncEnv) releaseIdx(r *Replica, i int) {
	j := e.pending[i]
	e.pending = append(e.pending[:i], e.pending[i+1:]...)
	r.Step(smr.Async{Kind: j.kind, Apply: j.apply})
}

// releaseAll drains completions in dispatch order, including any that
// dispatch transitively, and returns how many ran.
func (e *asyncEnv) releaseAll(r *Replica) int {
	n := 0
	for len(e.pending) > 0 {
		e.releaseIdx(r, 0)
		n++
	}
	return n
}

// suspectFrom builds a signed suspect message for the given view.
func suspectFrom(s crypto.Suite, from smr.NodeID, v smr.View) *MsgSuspect {
	m := &MsgSuspect{View: v, From: from}
	m.Sig = s.Sign(crypto.NodeID(from), m.SigPayload())
	return m
}

// TestStaleVerifyCompletionDroppedAfterViewChange: a follower's entry
// verification is in flight when a view change lands. The completion —
// submitted under the dead view — must be discarded by the epoch
// guard: no commit signed or sent, no entry buffered, no sequence
// number consumed.
func TestStaleVerifyCompletionDroppedAfterViewChange(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 4}
	r := NewReplica(1, cfg, kv.NewStore()) // follower of view 0 (group s0,s1)
	env := newAsyncEnv(1)
	r.Init(env)
	r.Step(smr.Start{})

	req := signedReq(suite, smr.ClientIDBase, 1, kv.PutOp("k", []byte("v")))
	batch := Batch{Reqs: []Request{req}}
	m0 := signOrder(suite, KindCommit, batch.Digest(), 1, 0, 0, crypto.Digest{})
	r.Step(smr.Recv{From: 0, Msg: &MsgCommitReq{Entry: PrepareEntry{Batch: batch, Primary: m0}}})

	if got := env.kinds(); len(got) != 1 || got[0] != "verify-prepare" {
		t.Fatalf("pending completions = %v, want [verify-prepare]", got)
	}
	// The primary of view 0 suspects its own view; the follower joins
	// the view change while the verification is still in flight.
	r.Step(smr.Recv{From: 0, Msg: suspectFrom(suite, 0, 0)})
	if r.View() != 1 {
		t.Fatalf("view = %d, want 1 after suspect", r.View())
	}

	env.releaseAll(r)
	if r.sn != 0 {
		t.Errorf("stale completion consumed sequence number %d", r.sn)
	}
	if s := r.slot(1); s.buffered != nil {
		t.Error("stale completion buffered an entry from the dead view")
	}
	for _, s := range env.sent {
		if _, ok := s.msg.(*MsgCommit); ok {
			t.Error("stale completion signed and sent a commit for the dead view")
		}
	}
	if r.slot(1).entryVerifying {
		t.Error("entryVerifying not reset by the view change")
	}
}

// TestStaleSignCompletionDroppedAfterViewChange: the primary's batch
// was verified and its order signature is in flight when the view
// changes. The signed order names the dead view; sending it would feed
// followers garbage, so the completion must be dropped.
func TestStaleSignCompletionDroppedAfterViewChange(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 1, PipelineWindow: 8}
	r := NewReplica(0, cfg, kv.NewStore()) // primary of view 0
	env := newAsyncEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	req := signedReq(suite, smr.ClientIDBase, 1, kv.PutOp("k", []byte("v")))
	r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	if got := env.kinds(); len(got) != 1 || got[0] != "verify-intake" {
		t.Fatalf("pending completions = %v, want [verify-intake]", got)
	}
	// Retire the intake verification: the batch gets its sequence
	// number and its order signature goes in flight.
	env.releaseIdx(r, 0)
	if got := env.kinds(); len(got) != 1 || got[0] != "sign-order" {
		t.Fatalf("pending completions = %v, want [sign-order]", got)
	}
	// The follower suspects view 0 while the signature is in flight.
	r.Step(smr.Recv{From: 1, Msg: suspectFrom(suite, 1, 0)})
	if !r.InViewChange() {
		t.Fatal("replica did not enter the view change")
	}
	env.releaseAll(r)
	for _, s := range env.sent {
		if _, ok := s.msg.(*MsgCommitReq); ok {
			t.Error("stale sign completion shipped a proposal for the dead view")
		}
	}
}

// TestIntakeRetiresInDispatchOrder: two intake batches verify out of
// order, but sequence numbers must follow dispatch order so a client's
// pipelined requests never reorder.
func TestIntakeRetiresInDispatchOrder(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 1, PipelineWindow: 8}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newAsyncEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	client := smr.ClientIDBase
	r.Step(smr.Recv{From: client, Msg: &MsgReplicate{Req: signedReq(suite, client, 1, kv.PutOp("a", []byte("v")))}})
	r.Step(smr.Recv{From: client, Msg: &MsgReplicate{Req: signedReq(suite, client, 2, kv.PutOp("b", []byte("v")))}})
	if got := env.kinds(); len(got) != 2 {
		t.Fatalf("pending completions = %v, want two verify-intake", got)
	}
	// Complete the second batch's verification first: nothing may be
	// assigned until the first retires.
	env.releaseIdx(r, 1)
	if r.sn != 0 {
		t.Fatalf("batch assigned out of order: sn = %d", r.sn)
	}
	env.releaseAll(r) // first verification, then both sign-order jobs
	var tss []uint64
	for _, s := range env.sent {
		if m, ok := s.msg.(*MsgCommitReq); ok {
			tss = append(tss, m.Entry.Batch.Reqs[0].TS)
		}
	}
	if len(tss) != 2 || tss[0] != 1 || tss[1] != 2 {
		t.Fatalf("proposal timestamps = %v, want [1 2] (dispatch order)", tss)
	}
	if r.sn != 2 {
		t.Errorf("sn = %d, want 2", r.sn)
	}
}

// TestForwardBatchAccumulatesWhileVerifying: requests reaching a
// follower while a verify-before-forward batch is in flight must
// accumulate into the next batch (one scatter per burst), and every
// valid request must still be forwarded exactly once.
func TestForwardBatchAccumulatesWhileVerifying(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite}
	r := NewReplica(1, cfg, kv.NewStore()) // follower of view 0
	env := newAsyncEnv(1)
	r.Init(env)
	r.Step(smr.Start{})

	first := signedReq(suite, smr.ClientIDBase, 1, kv.PutOp("a", []byte("v")))
	r.Step(smr.Recv{From: first.Client, Msg: &MsgReplicate{Req: first}})
	if got := env.kinds(); len(got) != 1 || got[0] != "verify-forward" {
		t.Fatalf("pending completions = %v, want [verify-forward]", got)
	}
	// A burst lands while the first verification is in flight — plus
	// one forgery, which must be shed when its batch verifies.
	var burst []Request
	for i := 0; i < 5; i++ {
		req := signedReq(suite, smr.ClientIDBase+1+smr.NodeID(i), 1, kv.PutOp("b", []byte("v")))
		if i == 3 {
			req.Sig = append(crypto.Signature(nil), req.Sig...)
			req.Sig[0] ^= 0xff
		}
		burst = append(burst, req)
		r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	if got := env.kinds(); len(got) != 1 {
		t.Fatalf("burst did not accumulate: pending = %v", got)
	}
	env.releaseIdx(r, 0) // first batch done; the burst dispatches as one
	if got := env.kinds(); len(got) != 1 || got[0] != "verify-forward" {
		t.Fatalf("pending completions = %v, want the burst's single verify-forward", got)
	}
	env.releaseAll(r)

	forwarded := 0
	for _, s := range env.sent {
		if m, ok := s.msg.(*MsgReplicate); ok {
			if s.to != 0 {
				t.Errorf("forwarded to %d, want primary 0", s.to)
			}
			if m.Req.Client == burst[3].Client {
				t.Error("forged request was forwarded")
			}
			forwarded++
		}
	}
	if forwarded != 5 { // first + 4 valid burst requests
		t.Errorf("forwarded %d requests, want 5", forwarded)
	}
	if got := r.IntakeStats().ForwardDropped; got != 1 {
		t.Errorf("ForwardDropped = %d, want 1", got)
	}
}

// TestMidViewChangeDispatchAppliesAfterInstall: work dispatched while
// a view change is in progress (the follower forward path has no
// status guard) must apply once that same view's change completes —
// dropping it would strand the fwdInFlight marker and mute the
// follower's forwarding until the next view change.
func TestMidViewChangeDispatchAppliesAfterInstall(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite}
	r := NewReplica(1, cfg, kv.NewStore()) // follower of view 0
	env := newAsyncEnv(1)
	r.Init(env)
	r.Step(smr.Start{})

	// Emulate a view change in progress for the follower's own view
	// (the real transition is driven by the view-change subprotocol;
	// the forward path only reads status).
	r.status = statusViewChange
	req := signedReq(suite, smr.ClientIDBase, 1, kv.PutOp("k", []byte("v")))
	r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	if got := env.kinds(); len(got) != 1 || got[0] != "verify-forward" {
		t.Fatalf("pending completions = %v, want [verify-forward]", got)
	}
	r.status = statusNormal // the same view's change completed
	env.releaseAll(r)

	forwarded := false
	for _, s := range env.sent {
		if _, ok := s.msg.(*MsgReplicate); ok && s.to == 0 {
			forwarded = true
		}
	}
	if !forwarded {
		t.Error("completion dispatched mid-view-change was dropped after install")
	}
	if r.fwdInFlight {
		t.Error("fwdInFlight stranded: follower forwarding is muted")
	}
}

// slowVerifySuite delays every single-signature verification. It
// deliberately does not implement BatchSuite, so each signature pays
// the delay — an exaggerated stand-in for expensive public-key crypto.
type slowVerifySuite struct {
	crypto.Suite
	delay time.Duration
}

func (s slowVerifySuite) Verify(id crypto.NodeID, data []byte, sig crypto.Signature) bool {
	time.Sleep(s.delay)
	return s.Suite.Verify(id, data, sig)
}

// loopback runs nodes on plaintext loopback transport.Nodes that know
// each other's addresses; cleanup stops them and waits for their Run.
func loopback(t *testing.T, nodes map[smr.NodeID]smr.Node) map[smr.NodeID]*transport.Node {
	t.Helper()
	peers := map[smr.NodeID]string{}
	live := make(map[smr.NodeID]*transport.Node, len(nodes))
	for id, nd := range nodes {
		n, err := transport.NewNode(id, nd, "127.0.0.1:0", peers)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		peers[id] = n.Addr()
		live[id] = n
	}
	for _, n := range live {
		ran := make(chan struct{})
		go func() {
			n.Run()
			close(ran)
		}()
		t.Cleanup(func() {
			n.Stop()
			<-ran
		})
	}
	return live
}

// TestSlowVerifyDoesNotStallEventLoop is the live-runtime regression
// for the tentpole property: with verification artificially slowed to
// 300 ms per signature, the primary's event loop must keep admitting
// requests and serving the batch timer while verifications are in
// flight. Under the old synchronous Step loop the first verification
// pinned the loop, so by the check below only one request would have
// been admitted and the batch timer could not have fired.
func TestSlowVerifyDoesNotStallEventLoop(t *testing.T) {
	base := crypto.NewSimSuite(7)
	slow := slowVerifySuite{Suite: base, delay: 300 * time.Millisecond}
	cfg := Config{
		N: 3, T: 1, Suite: slow,
		BatchSize:    2,
		BatchTimeout: 10 * time.Millisecond,
		Delta:        10 * time.Second, // keep protocol timers out of the way
	}
	var replicas []*Replica
	nodes := map[smr.NodeID]smr.Node{}
	for i := 0; i < 3; i++ {
		r := NewReplica(smr.NodeID(i), cfg, kv.NewStore())
		replicas = append(replicas, r)
		nodes[smr.NodeID(i)] = r
	}
	live := loopback(t, nodes)

	// Three requests: the first two dispatch immediately (pipeline
	// hungry), the third is a held partial batch that only the batch
	// timer can flush — which requires a live event loop.
	for ts := uint64(1); ts <= 3; ts++ {
		req := signedReq(base, smr.ClientIDBase+smr.NodeID(ts), ts, kv.PutOp("k", []byte("v")))
		live[0].Submit(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	time.Sleep(150 * time.Millisecond) // well inside the first verification's 300 ms
	st := replicas[0].IntakeStats()
	if st.Admitted != 3 {
		t.Errorf("Admitted = %d, want 3 (loop stalled behind a slow verify)", st.Admitted)
	}
	if st.Queued != 0 {
		t.Errorf("Queued = %d, want 0 (batch timer starved behind a slow verify)", st.Queued)
	}
}
