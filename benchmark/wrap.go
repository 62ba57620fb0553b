package main

import (
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wal"
	"github.com/xft-consensus/xft/internal/wire"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// The wrappers below sit on the boundaries that are already
// interfaces — crypto.Suite, wal.WAL, smr.Application, smr.Node and
// smr.Env, wire.Codec — so a traced pass needs no change to the
// program. Each forwards every call unchanged, times it, and reports
// to its node's record. With a nil record (an untraced pass) the trace
// functions return their argument, and the program runs unwrapped.

// ---------------------------------------------------------------------------
// crypto.Suite
// ---------------------------------------------------------------------------

// tracedSuite wraps a BatchSuite and is one: hiding batch support
// would push the replicas onto the one-by-one verification path and
// change the behaviour being measured.
type tracedSuite struct {
	n     *nodeTrace
	inner crypto.BatchSuite
}

func traceSuite(n *nodeTrace, s crypto.BatchSuite) crypto.Suite {
	if n == nil {
		return s
	}
	return &tracedSuite{n: n, inner: s}
}

func (s *tracedSuite) call(cs *callStats, name string, f func()) {
	s.n.timed(cs, "crypto", name, s.n.loopParent(), f)
}

func (s *tracedSuite) Sign(id crypto.NodeID, data []byte) (sig crypto.Signature) {
	s.call(&s.n.sign, "sign", func() { sig = s.inner.Sign(id, data) })
	return sig
}

func (s *tracedSuite) Verify(id crypto.NodeID, data []byte, sig crypto.Signature) (ok bool) {
	s.call(&s.n.verify, "verify", func() { ok = s.inner.Verify(id, data, sig) })
	return ok
}

func (s *tracedSuite) MAC(from, to crypto.NodeID, data []byte) (m crypto.MAC) {
	s.call(&s.n.mac, "mac", func() { m = s.inner.MAC(from, to, data) })
	return m
}

func (s *tracedSuite) VerifyMAC(from, to crypto.NodeID, data []byte, m crypto.MAC) (ok bool) {
	s.call(&s.n.mac, "verify-mac", func() { ok = s.inner.VerifyMAC(from, to, data, m) })
	return ok
}

func (s *tracedSuite) SignatureSize() int        { return s.inner.SignatureSize() }
func (s *tracedSuite) MACSize() int              { return s.inner.MACSize() }
func (s *tracedSuite) SupportsBatchVerify() bool { return s.inner.SupportsBatchVerify() }

func (s *tracedSuite) BatchVerify(jobs []crypto.VerifyJob) (ok bool) {
	s.call(&s.n.batch, "batch-verify", func() { ok = s.inner.BatchVerify(jobs) })
	if s.n.t.on.Load() {
		s.n.mu.Lock()
		s.n.batchedSigs += int64(len(jobs))
		s.n.mu.Unlock()
	}
	return ok
}

// ---------------------------------------------------------------------------
// wal.WAL
// ---------------------------------------------------------------------------

type tracedWAL struct {
	n     *nodeTrace
	inner wal.WAL
}

func traceWAL(n *nodeTrace, w wal.WAL) wal.WAL {
	if n == nil {
		return w
	}
	return &tracedWAL{n: n, inner: w}
}

func (w *tracedWAL) call(cs *callStats, name string, f func()) int64 {
	return w.n.timed(cs, "wal", name, w.n.walWork.Load(), f)
}

func (w *tracedWAL) Append(payload []byte) (lsn uint64, err error) {
	if w.call(&w.n.walAppend, "append", func() { lsn, err = w.inner.Append(payload) }) > 0 {
		w.n.mu.Lock()
		w.n.walBytes += int64(len(payload))
		w.n.mu.Unlock()
	}
	return lsn, err
}

func (w *tracedWAL) Sync() (err error) {
	if ns := w.call(&w.n.walSync, "sync", func() { err = w.inner.Sync() }); ns > 0 {
		w.n.mu.Lock()
		w.n.walSyncMS = append(w.n.walSyncMS, float64(ns)/1e6)
		w.n.mu.Unlock()
	}
	return err
}

func (w *tracedWAL) Replay(fn func(lsn uint64, payload []byte) error) error {
	return w.inner.Replay(fn)
}

func (w *tracedWAL) TruncateFront(keep uint64) (err error) {
	w.call(&w.n.walTruncate, "truncate", func() { err = w.inner.TruncateFront(keep) })
	return err
}

// ---------------------------------------------------------------------------
// smr.Application
// ---------------------------------------------------------------------------

// tracedApp is only ever called from the replica's event loop, so the
// Step in progress is its parent.
type tracedApp struct {
	n     *nodeTrace
	inner smr.Application
}

func traceApp(n *nodeTrace, a smr.Application) smr.Application {
	if n == nil {
		return a
	}
	return &tracedApp{n: n, inner: a}
}

func (a *tracedApp) call(cs *callStats, name string, f func()) {
	a.n.timed(cs, "kv", name, a.n.curStep.Load(), f)
}

func (a *tracedApp) Execute(op []byte) (rep []byte) {
	a.call(&a.n.exec, "execute", func() { rep = a.inner.Execute(op) })
	return rep
}

func (a *tracedApp) Snapshot() (snap []byte) {
	a.call(&a.n.snapshot, "snapshot", func() { snap = a.inner.Snapshot() })
	return snap
}

func (a *tracedApp) Restore(snap []byte) error { return a.inner.Restore(snap) }

// ---------------------------------------------------------------------------
// smr.Node and smr.Env
// ---------------------------------------------------------------------------

// tracedNode stands between the transport and the protocol node: it
// times every Step and hands the node an Env that times what the node
// does to the world.
type tracedNode struct {
	n     *nodeTrace
	inner smr.Node
}

// intakeReporter is the optional interface transport.Node.Stats looks
// for on its hosted node.
type intakeReporter interface {
	IntakeStats() smr.IntakeStats
}

// tracedReplica adds IntakeStats, so the transport still finds the
// replica's intake counters behind the wrapper — and still finds none
// behind a wrapped client.
type tracedReplica struct {
	tracedNode
	intake intakeReporter
}

func (r *tracedReplica) IntakeStats() smr.IntakeStats { return r.intake.IntakeStats() }

func traceNode(n *nodeTrace, nd smr.Node) smr.Node {
	if n == nil {
		return nd
	}
	if ir, ok := nd.(intakeReporter); ok {
		return &tracedReplica{tracedNode{n, nd}, ir}
	}
	return &tracedNode{n, nd}
}

func (t *tracedNode) Init(env smr.Env) { t.inner.Init(&tracedEnv{Env: env, n: t.n}) }

func (t *tracedNode) Step(ev smr.Event) {
	n := t.n
	if pd, ok := ev.(smr.PeerDown); ok && !pd.Peer.IsClient() {
		n.mu.Lock()
		if n.peerDown == 0 {
			n.peerDown = now()
		}
		n.mu.Unlock()
	}
	if !n.t.on.Load() {
		t.inner.Step(ev)
		return
	}
	class, sp := classify(ev)
	sp.ID, sp.Layer, sp.Start = n.t.nextID.Add(1), "xpaxos", now()
	if inv, ok := ev.(smr.Invoke); ok && n.sentAt != nil {
		if at := n.sentAt(inv.Op); at != 0 {
			n.mu.Lock()
			n.submitWait.add(sp.Start - at)
			n.mu.Unlock()
		}
	}
	n.curStep.Store(sp.ID)
	t.inner.Step(ev)
	n.curStep.Store(0)
	sp.End = now()
	n.mu.Lock()
	cs := n.step(class)
	n.stepNS += sp.End - sp.Start
	n.mu.Unlock()
	n.record(cs, sp)
}

// classify names a Step by the event that caused it and pulls the
// request or batch id out of the message, where it has one.
func classify(ev smr.Event) (class string, sp span) {
	switch e := ev.(type) {
	case smr.Recv:
		class = stepClass(e.Msg.Type())
		sp.Client, sp.TS, sp.SN = messageID(e.Msg)
	case smr.Async:
		class = "async"
	case smr.TimerFired:
		class = "timer"
	case smr.Invoke:
		class = "invoke"
	default:
		class = "other"
	}
	sp.Name = "step." + class
	return class, sp
}

// stepClass folds message types into the stages of the common case.
// commit-req is the t=1 primary's proposal to its follower, the same
// stage as a t>=2 prepare.
func stepClass(msgType string) string {
	switch msgType {
	case "replicate":
		return "replicate"
	case "prepare", "commit-req":
		return "prepare"
	case "commit":
		return "commit"
	case "reply", "reply-digest":
		return "reply"
	}
	return "other"
}

func messageID(m smr.Message) (client int, ts, sn uint64) {
	switch m := m.(type) {
	case *xpaxos.MsgReplicate:
		return int(m.Req.Client), m.Req.TS, 0
	case *xpaxos.MsgResend:
		return int(m.Req.Client), m.Req.TS, 0
	case *xpaxos.MsgPrepare:
		return 0, 0, uint64(m.Entry.SN())
	case *xpaxos.MsgCommitReq:
		return 0, 0, uint64(m.Entry.SN())
	case *xpaxos.MsgCommit:
		return 0, 0, uint64(m.Order.SN)
	case *xpaxos.MsgReply:
		return 0, m.TS, uint64(m.SN)
	case *xpaxos.MsgReplyDigest:
		return 0, m.TS, uint64(m.SN)
	}
	return 0, 0, 0
}

// tracedEnv is the Env a traced node acts through. Protocol nodes call
// it only from their event loop, so its calls are children of the Step
// in progress.
type tracedEnv struct {
	smr.Env
	n *nodeTrace
}

func (e *tracedEnv) Send(to smr.NodeID, m smr.Message) {
	n := e.n
	if !n.t.on.Load() {
		e.Env.Send(to, m)
		return
	}
	sp := span{ID: n.t.nextID.Add(1), Parent: n.curStep.Load(), Name: "send." + m.Type(), Layer: "transport", Start: now()}
	sp.Client, sp.TS, sp.SN = messageID(m)
	e.Env.Send(to, m)
	sp.End = now()
	n.record(&n.send, sp)
}

func (e *tracedEnv) SetTimer(d time.Duration, kind string) smr.TimerID {
	if e.n.t.on.Load() {
		e.n.mu.Lock()
		e.n.timers++
		e.n.mu.Unlock()
	}
	return e.Env.SetTimer(d, kind)
}

// Defer times the three legs of an off-loop job: the work itself, the
// wait of the finished work for the event loop, and the whole trip
// from the Defer call to the start of apply.
func (e *tracedEnv) Defer(kind string, work func(), apply func()) {
	n := e.n
	if !n.t.on.Load() {
		e.Env.Defer(kind, work, apply)
		return
	}
	sp := span{ID: n.t.nextID.Add(1), Parent: n.curStep.Load(), Name: "defer." + kind, Layer: "smr"}
	called := now()
	e.Env.Defer(kind,
		func() {
			sp.Start = now()
			if kind == smr.DeferKindWAL {
				n.walWork.Store(sp.ID)
			}
			n.deferred.Add(1)
			work()
			n.deferred.Add(-1)
			sp.End = now()
		},
		func() {
			started := now()
			n.mu.Lock()
			ds := n.kind(kind)
			ds.wait.add(started - called)
			ds.inbox.add(started - sp.End)
			n.mu.Unlock()
			n.record(&ds.work, sp)
			apply()
		})
}

// ---------------------------------------------------------------------------
// wire.Codec
// ---------------------------------------------------------------------------

// tracedCodecName is the XPaxos codec behind a timer. The registry is
// process-wide and a codec is two plain functions, so it reports to
// whichever tracer is active and costs two atomic loads when none is.
const tracedCodecName = "xpaxos-traced"

func init() {
	wire.Register(wire.Codec{
		Name: tracedCodecName,
		Append: func(w *wire.Buf, m smr.Message) error {
			t := active.Load()
			if t == nil {
				return xpaxos.AppendMessage(w, m)
			}
			before := len(w.Done())
			sp := span{ID: t.nextID.Add(1), Name: "encode." + m.Type(), Layer: "wire", Start: now()}
			sp.Client, sp.TS, sp.SN = messageID(m)
			err := xpaxos.AppendMessage(w, m)
			sp.End = now()
			t.wire.record(&t.wire.encode, sp)
			t.wire.mu.Lock()
			t.wire.wireBytes += int64(len(w.Done()) - before)
			t.wire.mu.Unlock()
			return err
		},
		Decode: func(b []byte) (smr.Message, error) {
			t := active.Load()
			if t == nil {
				return xpaxos.DecodeMessage(b)
			}
			sp := span{ID: t.nextID.Add(1), Name: "decode", Layer: "wire", Start: now()}
			m, err := xpaxos.DecodeMessage(b)
			sp.End = now()
			if err == nil {
				sp.Name = "decode." + m.Type()
				sp.Client, sp.TS, sp.SN = messageID(m)
			}
			t.wire.record(&t.wire.decode, sp)
			return m, err
		},
	})
}
