package xpaxos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// stubEnv is a minimal smr.Env for stepping a single replica by hand.
type stubEnv struct {
	id   smr.NodeID
	sent []struct {
		to  smr.NodeID
		msg smr.Message
	}
	timers map[smr.TimerID]string
	next   smr.TimerID
}

func newStubEnv(id smr.NodeID) *stubEnv {
	return &stubEnv{id: id, timers: make(map[smr.TimerID]string)}
}

func (e *stubEnv) ID() smr.NodeID     { return e.id }
func (e *stubEnv) Now() time.Duration { return 0 }
func (e *stubEnv) Send(to smr.NodeID, m smr.Message) {
	e.sent = append(e.sent, struct {
		to  smr.NodeID
		msg smr.Message
	}{to, m})
}
func (e *stubEnv) SetTimer(d time.Duration, kind string) smr.TimerID {
	e.next++
	e.timers[e.next] = kind
	return e.next
}
func (e *stubEnv) CancelTimer(id smr.TimerID) { delete(e.timers, id) }

// Defer runs synchronously: the stub has no off-loop execution, which
// the Env contract permits, and it keeps hand-stepped tests
// deterministic (every handler's effects are visible when Step
// returns). asyncEnv in async_test.go covers deferred delivery.
func (e *stubEnv) Defer(kind string, work func(), apply func()) {
	work()
	apply()
}

// lastTimer returns the most recent pending timer of the given kind.
func (e *stubEnv) lastTimer(kind string) (smr.TimerID, bool) {
	var best smr.TimerID
	for id, k := range e.timers {
		if k == kind && id > best {
			best = id
		}
	}
	return best, best != 0
}

func signedReq(s crypto.Suite, client smr.NodeID, ts uint64, op []byte) Request {
	req := Request{Op: op, TS: ts, Client: client}
	req.Sig = s.Sign(crypto.NodeID(client), req.SigPayload())
	return req
}

// TestForgedRequestCannotSuppressHonest is the regression test for the
// deferred-intake-verification race: while the pipeline is busy, a
// forged request (valid client id and timestamp, garbage signature)
// reaching the primary first must not block the honest client's
// request from committing in the same batching round.
func TestForgedRequestCannotSuppressHonest(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 3, PipelineWindow: 8}
	r := NewReplica(0, cfg, kv.NewStore()) // primary of view 0
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	clientA := smr.ClientIDBase
	clientC := smr.ClientIDBase + 1

	// Prime the pipeline so partial batches are held back: two single
	// requests from A flush immediately (pipeline hungry) and stay in
	// flight — no commits are delivered in this test.
	r.Step(smr.Recv{From: clientA, Msg: &MsgReplicate{Req: signedReq(suite, clientA, 1, kv.PutOp("a1", []byte("v")))}})
	r.Step(smr.Recv{From: clientA, Msg: &MsgReplicate{Req: signedReq(suite, clientA, 2, kv.PutOp("a2", []byte("v")))}})
	if got := r.inFlight(); got < 2 {
		t.Fatalf("pipeline not primed: in-flight = %d", got)
	}

	// The forgery races ahead of the honest request.
	forged := signedReq(suite, clientC, 1, kv.PutOp("c", []byte("evil")))
	forged.Sig = append([]byte(nil), forged.Sig...)
	forged.Sig[0] ^= 0xff
	r.Step(smr.Recv{From: clientC, Msg: &MsgReplicate{Req: forged}})

	honest := signedReq(suite, clientC, 1, kv.PutOp("c", []byte("good")))
	r.Step(smr.Recv{From: clientC, Msg: &MsgReplicate{Req: honest}})

	// Force the held partial batch out through the batch timer.
	id, ok := env.lastTimer("batch")
	if !ok {
		t.Fatal("no batch timer armed while pipeline busy")
	}
	r.Step(smr.TimerFired{ID: id, Kind: "batch"})

	// The honest request must have been proposed; the forged one never.
	var honestProposed, forgedProposed bool
	for _, s := range env.sent {
		m, ok := s.msg.(*MsgCommitReq)
		if !ok {
			continue
		}
		for i := range m.Entry.Batch.Reqs {
			rq := &m.Entry.Batch.Reqs[i]
			if rq.Client != clientC {
				continue
			}
			if string(rq.Sig) == string(honest.Sig) {
				honestProposed = true
			}
			if string(rq.Sig) == string(forged.Sig) {
				forgedProposed = true
			}
		}
	}
	if !honestProposed {
		t.Error("honest request was suppressed by the forged copy")
	}
	if forgedProposed {
		t.Error("forged request was proposed to the follower")
	}
}

// TestDuplicateRequestDedupedInPipeline checks the queued marker still
// dedupes identical retransmissions: the same signed request delivered
// twice while pending must be proposed exactly once.
func TestDuplicateRequestDedupedInPipeline(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 3, PipelineWindow: 8}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	clientA := smr.ClientIDBase
	clientC := smr.ClientIDBase + 1
	r.Step(smr.Recv{From: clientA, Msg: &MsgReplicate{Req: signedReq(suite, clientA, 1, kv.PutOp("a1", []byte("v")))}})
	r.Step(smr.Recv{From: clientA, Msg: &MsgReplicate{Req: signedReq(suite, clientA, 2, kv.PutOp("a2", []byte("v")))}})

	req := signedReq(suite, clientC, 1, kv.PutOp("c", []byte("v")))
	r.Step(smr.Recv{From: clientC, Msg: &MsgReplicate{Req: req}})
	r.Step(smr.Recv{From: clientC, Msg: &MsgReplicate{Req: req}}) // retransmission

	id, ok := env.lastTimer("batch")
	if !ok {
		t.Fatal("no batch timer armed")
	}
	r.Step(smr.TimerFired{ID: id, Kind: "batch"})

	proposals := 0
	for _, s := range env.sent {
		if m, ok := s.msg.(*MsgCommitReq); ok {
			for i := range m.Entry.Batch.Reqs {
				if m.Entry.Batch.Reqs[i].Client == clientC {
					proposals++
				}
			}
		}
	}
	if proposals != 1 {
		t.Errorf("client request proposed %d times, want exactly 1", proposals)
	}
}

// TestFollowerDropsForgedReplicate: the verify-before-forward guard. A
// follower flooded with invalid-signature MsgReplicate must forward
// nothing to the primary, and must count every drop.
func TestFollowerDropsForgedReplicate(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite}
	r := NewReplica(1, cfg, kv.NewStore()) // follower of view 0 (group s0,s1)
	env := newStubEnv(1)
	r.Init(env)
	r.Step(smr.Start{})

	const blast = 50
	for i := 0; i < blast; i++ {
		req := signedReq(suite, smr.ClientIDBase+smr.NodeID(i), 1, kv.PutOp("x", []byte("v")))
		req.Sig[0] ^= 0xff
		r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	for _, s := range env.sent {
		if _, ok := s.msg.(*MsgReplicate); ok {
			t.Fatalf("follower forwarded a forged request to node %d", s.to)
		}
	}
	if got := r.IntakeStats().ForwardDropped; got != blast {
		t.Errorf("ForwardDropped = %d, want %d", got, blast)
	}

	// A genuine request still flows through to the primary.
	good := signedReq(suite, smr.ClientIDBase+999, 1, kv.PutOp("x", []byte("v")))
	r.Step(smr.Recv{From: good.Client, Msg: &MsgReplicate{Req: good}})
	forwarded := false
	for _, s := range env.sent {
		if m, ok := s.msg.(*MsgReplicate); ok && s.to == 0 && m.Req.TS == good.TS && m.Req.Client == good.Client {
			forwarded = true
		}
	}
	if !forwarded {
		t.Error("valid request was not forwarded to the primary")
	}
}

// TestPrimaryAdmissionShedsUnderOverload: with the pipeline window
// full, arrivals beyond the queue bound must be shed — counted, not
// queued — and the queue depth must stay at its cap.
func TestPrimaryAdmissionShedsUnderOverload(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 4, PipelineWindow: 2,
		IntakeQueueCap: 8}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	// 100 one-request clients. The first two arrivals ship immediately
	// (pipeline hungry) and stay in flight — the stub never commits —
	// so the window is full for the rest: 8 fill the queue, 90 shed.
	for i := 0; i < 100; i++ {
		req := signedReq(suite, smr.ClientIDBase+smr.NodeID(i), 1, kv.PutOp(fmt.Sprintf("k%d", i), []byte("v")))
		r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	st := r.IntakeStats()
	if st.Queued != 8 {
		t.Errorf("Queued = %d, want 8 (the cap)", st.Queued)
	}
	if st.Shed != 90 {
		t.Errorf("Shed = %d, want 90", st.Shed)
	}
	if st.Admitted != 10 {
		t.Errorf("Admitted = %d, want 10", st.Admitted)
	}
}

// TestPerClientQuota: one flooding client is limited to its quota — the
// session window — without crowding out a quiet client.
func TestPerClientQuota(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 3, PipelineWindow: 2,
		IntakeQueueCap: 2 * execWindowBits}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	flooder := smr.ClientIDBase
	quiet := smr.ClientIDBase + 1
	// Two fillers occupy the whole pipeline window, so every later
	// arrival queues instead of shipping.
	for i := 0; i < 2; i++ {
		req := signedReq(suite, smr.ClientIDBase+smr.NodeID(10+i), 1, kv.PutOp("f", []byte("v")))
		r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	const sent = execWindowBits + 36
	for ts := uint64(1); ts <= sent; ts++ {
		req := signedReq(suite, flooder, ts, kv.PutOp("a", []byte("v")))
		r.Step(smr.Recv{From: flooder, Msg: &MsgReplicate{Req: req}})
	}
	st := r.IntakeStats()
	if st.Shed != sent-execWindowBits {
		t.Errorf("flooder shed = %d, want %d (%d sent, quota %d)", st.Shed, sent-execWindowBits, sent, execWindowBits)
	}
	if s := r.sessions[flooder]; s.open > execWindowBits || len(s.pending) != execWindowBits {
		t.Errorf("flooder's session holds %d open requests and %d queued, want at most %d and %d",
			s.open, len(s.pending), execWindowBits, execWindowBits)
	}
	// The quota, not the global cap, did the shedding: a quiet client
	// still gets in.
	quietReq := signedReq(suite, quiet, 1, kv.PutOp("b", []byte("v")))
	r.Step(smr.Recv{From: quiet, Msg: &MsgReplicate{Req: quietReq}})
	if got := r.IntakeStats().Queued; got != execWindowBits+1 {
		t.Errorf("Queued = %d, want %d (%d flooder + 1 quiet)", got, execWindowBits+1, execWindowBits)
	}
}

// TestAdmissionRoundRobinDrain exercises the queue's drain order
// directly: one request per client per turn, per-client FIFO.
func TestAdmissionRoundRobinDrain(t *testing.T) {
	q := admissionQueue{capTotal: 64}
	a, b, c := &session{client: 1}, &session{client: 2}, &session{client: 3}
	mk := func(s *session, ts uint64) Request { return Request{Client: s.client, TS: ts} }
	for ts := uint64(1); ts <= 4; ts++ {
		q.admit(a, mk(a, ts))
	}
	q.admit(b, mk(b, 1))
	q.admit(c, mk(c, 1))
	q.admit(c, mk(c, 2))

	got := q.drain(3)
	wantClients := []smr.NodeID{a.client, b.client, c.client}
	for i, r := range got {
		if r.Client != wantClients[i] {
			t.Fatalf("drain[%d] from client %d, want %d (round-robin)", i, r.Client, wantClients[i])
		}
	}
	if got[0].TS != 1 {
		t.Errorf("client a drained TS %d first, want 1 (FIFO)", got[0].TS)
	}
	// Second turn: a again (ts 2), then c (ts 2), then a (ts 3).
	got = q.drain(3)
	if got[0].Client != a.client || got[0].TS != 2 || got[1].Client != c.client || got[1].TS != 2 || got[2].Client != a.client || got[2].TS != 3 {
		t.Errorf("second drain = %v", got)
	}
	if q.total != 1 {
		t.Errorf("size = %d, want 1", q.total)
	}
	rest := q.drain(10)
	if len(rest) != 1 || rest[0].Client != a.client || rest[0].TS != 4 {
		t.Errorf("final drain = %v", rest)
	}
}

// TestForgedQuotaPinningBlocked: an attacker spraying forged requests
// that *name* a victim client must not pin the victim's per-client
// quota — once the victim's queue is deep, admission demands a valid
// signature, so the forgeries die at the door and the genuine client
// still gets in.
func TestForgedQuotaPinningBlocked(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 4, PipelineWindow: 2,
		IntakeQueueCap: 256}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	victim := smr.ClientIDBase
	// Fill the pipeline so arrivals queue.
	for i := 0; i < 2; i++ {
		req := signedReq(suite, smr.ClientIDBase+smr.NodeID(10+i), 1, kv.PutOp("f", []byte("v")))
		r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	// Forged spray in the victim's name with distinct timestamps.
	for ts := uint64(100); ts < 180; ts++ {
		forged := signedReq(suite, victim, ts, kv.PutOp("x", []byte("evil")))
		forged.Sig[0] ^= 0xff
		r.Step(smr.Recv{From: victim, Msg: &MsgReplicate{Req: forged}})
	}
	st := r.IntakeStats()
	if st.PressureDropped == 0 {
		t.Error("no forged requests were verification-dropped under pressure")
	}
	if st.Queued > 2+verifyPressureDepth {
		t.Errorf("forged spray occupied %d slots; want at most fillers+%d", st.Queued, verifyPressureDepth)
	}
	// The genuine victim request must still be admitted (quota free).
	admitted := st.Admitted
	genuine := signedReq(suite, victim, 1, kv.PutOp("y", []byte("good")))
	r.Step(smr.Recv{From: victim, Msg: &MsgReplicate{Req: genuine}})
	if got := r.IntakeStats().Admitted; got != admitted+1 {
		t.Errorf("genuine victim request not admitted (admitted %d -> %d)", admitted, got)
	}
}

// TestShedRequestLeavesNoMarker: a shed request must not plant a
// queued-marker that would suppress its own retransmission later.
func TestShedRequestLeavesNoMarker(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	cfg := Config{N: 3, T: 1, Suite: suite, BatchSize: 2, PipelineWindow: 2,
		IntakeQueueCap: 2}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	// Fill pipeline (2 proposals) and queue (2 queued).
	for i := 0; i < 4; i++ {
		req := signedReq(suite, smr.ClientIDBase+smr.NodeID(i), 1, kv.PutOp("x", []byte("v")))
		r.Step(smr.Recv{From: req.Client, Msg: &MsgReplicate{Req: req}})
	}
	victim := signedReq(suite, smr.ClientIDBase+50, 1, kv.PutOp("y", []byte("v")))
	r.Step(smr.Recv{From: victim.Client, Msg: &MsgReplicate{Req: victim}})
	if st := r.IntakeStats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	// The shed request was its client's first: no slot, no session.
	if s := r.sessions[victim.Client]; s != nil {
		t.Errorf("shed request left a session behind (%d open requests); its retransmission would be dropped", s.open)
	}
}

// TestForgedBlastLive runs the hardened intake end to end on loopback
// transport.Nodes with real Ed25519 signatures: a flooder blasts forged
// requests at the follower and primary while an honest client makes
// progress. Run under -race this exercises the concurrent stats reads
// and the pooled batch-verification path.
func TestForgedBlastLive(t *testing.T) {
	n := 3
	suite := crypto.NewEd25519Suite(n+1024, 7) // covers smr.ClientIDBase ids
	replicas := make([]*Replica, n)
	nodes := map[smr.NodeID]smr.Node{}
	for i := 0; i < n; i++ {
		cfg := Config{
			N: n, T: 1, Suite: crypto.NewMeter(suite),
			Delta: 200 * time.Millisecond, BatchSize: 8,
			BatchTimeout: time.Millisecond, IntakeQueueCap: 16,
		}
		replicas[i] = NewReplica(smr.NodeID(i), cfg, kv.NewStore())
		nodes[smr.NodeID(i)] = replicas[i]
	}
	clientID := smr.ClientIDBase
	committed := make(chan struct{}, 64)
	cl, err := NewClient(clientID, ClientConfig{
		N: n, T: 1, Suite: crypto.NewMeter(suite),
		// Generous: under -race on a small host a commit takes a while,
		// and premature retransmission broadcasts only add crypto load.
		RequestTimeout: 2 * time.Second,
		OnCommit:       func(op, rep []byte, lat time.Duration) { committed <- struct{}{} },
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	nodes[clientID] = cl
	live := loopback(t, nodes)

	// Flood forged requests (garbage signatures under real client ids)
	// at both the primary and the follower from a hostile goroutine.
	forge := func(i int) (smr.NodeID, *MsgReplicate) {
		forger := smr.ClientIDBase + smr.NodeID(1+i%32)
		req := Request{Op: kv.PutOp("evil", []byte("x")), TS: uint64(1 + i), Client: forger}
		req.Sig = make(crypto.Signature, 64) // structurally sized, invalid
		return forger, &MsgReplicate{Req: req}
	}
	// A synchronous opening burst guarantees the follower sees forged
	// traffic even if the honest client races through its ops quickly.
	for i := 0; i < 40; i++ {
		from, msg := forge(i)
		live[0].Submit(smr.Recv{From: from, Msg: msg})
		live[1].Submit(smr.Recv{From: from, Msg: msg})
	}
	// The continuing blast is paced: the admission bounds protect
	// memory, not CPU — an unthrottled local generator can always
	// out-schedule the event loop on one core, which is not what this
	// test measures.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 40
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for burst := 0; burst < 4; burst++ {
				from, msg := forge(i)
				live[0].Submit(smr.Recv{From: from, Msg: msg})
				live[1].Submit(smr.Recv{From: from, Msg: msg})
				i++
			}
		}
	}()

	// The honest client commits ops closed-loop through the blast.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			live[clientID].Submit(smr.Invoke{Op: kv.PutOp("k", []byte(fmt.Sprintf("v%d", i)))})
			select {
			case <-committed:
			case <-time.After(10 * time.Second):
				t.Error("honest client starved during forged blast")
				return
			}
		}
	}()
	// Concurrent stats readers (what transport.Node.Stats does live).
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					_ = replicas[0].IntakeStats()
					_ = replicas[1].IntakeStats()
				}
			}
		}()
	}
	<-done
	close(stop)
	wg.Wait()

	// The forged traffic is already enqueued; give the follower's loop
	// a bounded moment to chew through it.
	deadline := time.Now().Add(5 * time.Second)
	for replicas[1].IntakeStats().ForwardDropped == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if follower := replicas[1].IntakeStats(); follower.ForwardDropped == 0 {
		t.Error("follower forwarded forged requests (ForwardDropped = 0)")
	}
	if primary := replicas[0].IntakeStats(); primary.Queued > 16 {
		t.Errorf("primary admission queue grew past its cap: %d", primary.Queued)
	}
}
