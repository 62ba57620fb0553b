package baseline

import (
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// Config parameterizes a baseline replica or client.
type Config struct {
	N, T         int
	Suite        crypto.Suite
	BatchSize    int
	BatchTimeout time.Duration
	// RequestTimeout is the client's retransmission timer and the
	// replicas' progress timer before they change leader.
	RequestTimeout time.Duration
	Observer       smr.CommitObserver

	// SignedRequests makes clients sign their requests and replicas
	// verify them (batched, on the verification pool) before ordering.
	// Off by default: the paper's baselines authenticate requests with
	// MACs only. The cross-protocol arena turns it on so all five
	// protocols carry the same client-authentication cost.
	SignedRequests bool
}

// WithDefaults fills unset fields. perFault is the protocol's replica
// count per tolerated fault: 2 for n = 2t+1, 3 for n = 3t+1.
func (c Config) WithDefaults(perFault int) Config {
	if c.N == 0 {
		c.N = perFault*c.T + 1
	}
	if c.T == 0 {
		c.T = (c.N - 1) / perFault
	}
	if c.BatchSize == 0 {
		c.BatchSize = 20
	}
	if c.BatchTimeout == 0 {
		c.BatchTimeout = 5 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Second
	}
	return c
}

// QueueCap bounds each intake queue — requests awaiting signature
// verification and verified requests awaiting a batch cut (which only
// backs up while a leader change is in progress). It equals XPaxos's
// IntakeQueueCap default. Beyond it the newest request is dropped and
// counted; its client retransmits.
const QueueCap = 4096

// Peer is the identity a baseline replica or client acts under. All
// four protocols rotate the leader round-robin over views (Zab calls
// them epochs).
type Peer struct {
	Env   smr.Env
	ID    smr.NodeID
	N, T  int
	Suite crypto.Suite
	View  smr.View
}

// Init implements smr.Node.
func (p *Peer) Init(env smr.Env) { p.Env = env }

// LeaderOf returns the leader of view v.
func (p *Peer) LeaderOf(v smr.View) smr.NodeID { return smr.NodeID(int(v) % p.N) }

// Leader returns the leader of the current view.
func (p *Peer) Leader() smr.NodeID { return p.LeaderOf(p.View) }

// IsLeader reports whether this node leads the current view.
func (p *Peer) IsLeader() bool { return p.Leader() == p.ID }

// MAC authenticates payload from this node to one recipient.
func (p *Peer) MAC(to smr.NodeID, payload []byte) crypto.MAC {
	return p.Suite.MAC(crypto.NodeID(p.ID), crypto.NodeID(to), payload)
}

// VerifyMAC checks a MAC addressed to this node.
func (p *Peer) VerifyMAC(from smr.NodeID, payload []byte, mac crypto.MAC) bool {
	return p.Suite.VerifyMAC(crypto.NodeID(from), crypto.NodeID(p.ID), payload, mac)
}

// Hooks is the agreement logic a protocol plugs into Core.
type Hooks struct {
	// Recv handles every message except client requests.
	Recv func(from smr.NodeID, m smr.Message)
	// Propose orders one cut batch. Core calls it only while this
	// replica leads and no leader change is in progress.
	Propose func(b Batch)
	// Resend answers a retransmission of an already-executed request
	// from the reply cache.
	Resend func(client smr.NodeID, ts uint64, rep []byte)
	// Suspect starts a leader change: the progress timer expired with
	// a forwarded request, or an earlier change, still unresolved.
	Suspect func()
}

// Core is the part of a replica that is the same in every baseline:
// request intake (dedupe → forward-and-watch → single-flight batched
// signature verification off the Step loop → batch timer → cut),
// at-most-once execution with the reply cache, and the progress timer.
// A protocol's Replica embeds *Core, which makes it an smr.Node.
type Core struct {
	Peer
	Cfg Config
	// Electing is set by the protocol while a leader change is in
	// progress; intake queues instead of cutting batches.
	Electing bool
	// Others lists every replica but this one, in ID order.
	Others []smr.NodeID
	// Dropped counts requests shed at QueueCap.
	Dropped uint64

	domain Domain
	app    smr.Application
	hooks  Hooks

	lastExec map[smr.NodeID]uint64
	replies  map[smr.NodeID][]byte

	pending       []Request // verified, awaiting a batch cut
	batchTimer    smr.TimerID
	batchTimerSet bool

	unverified []Request // SignedRequests only: awaiting the next verification round
	verifying  bool

	progress smr.TimerID
	watching bool
}

// NewCore builds the shared half of replica id. cfg must already carry
// its defaults.
func NewCore(id smr.NodeID, cfg Config, d Domain, app smr.Application, h Hooks) *Core {
	c := &Core{
		Peer: Peer{ID: id, N: cfg.N, T: cfg.T, Suite: cfg.Suite},
		Cfg:  cfg, domain: d, app: app, hooks: h,
		lastExec: make(map[smr.NodeID]uint64),
		replies:  make(map[smr.NodeID][]byte),
	}
	for i := 0; i < cfg.N; i++ {
		if smr.NodeID(i) != id {
			c.Others = append(c.Others, smr.NodeID(i))
		}
	}
	return c
}

// Step implements smr.Node.
func (c *Core) Step(ev smr.Event) {
	switch e := ev.(type) {
	case smr.TimerFired:
		switch {
		case e.Kind == "batch" && e.ID == c.batchTimer:
			c.batchTimerSet = false
			c.Flush()
		case e.Kind == "progress" && e.ID == c.progress && c.watching:
			c.watching = false
			c.hooks.Suspect()
		}
	case smr.Recv:
		if m, ok := e.Msg.(*MsgRequest); ok {
			c.onRequest(m.Req)
		} else {
			c.hooks.Recv(e.From, e.Msg)
		}
	case smr.Async:
		e.Apply()
	}
}

// Adopt follows a leader that is provably ahead of this replica: a
// higher view also ends any leader change this replica was pursuing.
func (c *Core) Adopt(v smr.View) {
	if v > c.View {
		c.View = v
		c.Electing = false
	}
}

// Watch arms the progress timer unless it is already running: if
// nothing calls Unwatch within RequestTimeout, Hooks.Suspect fires.
func (c *Core) Watch() {
	if !c.watching {
		c.Rewatch()
	}
}

// Rewatch restarts the progress timer from now.
func (c *Core) Rewatch() {
	c.watching = true
	c.progress = c.Env.SetTimer(c.Cfg.RequestTimeout, "progress")
}

// Unwatch records progress: the pending suspicion is dropped.
func (c *Core) Unwatch() { c.watching = false }

// answered handles a request this replica already executed, replaying
// the cached reply through Hooks.Resend.
func (c *Core) answered(req *Request) bool {
	if req.TS > c.lastExec[req.Client] {
		return false
	}
	if rep, ok := c.replies[req.Client]; ok {
		c.hooks.Resend(req.Client, req.TS, rep)
	}
	return true
}

func (c *Core) onRequest(req Request) {
	switch {
	case c.answered(&req):
	case !c.IsLeader():
		// Forward and watch for progress: if the leader is dead the
		// progress timer starts a leader change.
		c.Env.Send(c.Leader(), &MsgRequest{Req: req})
		c.Watch()
	case !c.Cfg.SignedRequests:
		c.enqueue(req)
		c.schedule()
	case len(c.unverified) >= QueueCap:
		c.Dropped++
	default:
		c.unverified = append(c.unverified, req)
		c.kickVerify()
	}
}

// sigBatch assembles one verification job per request signature.
func (c *Core) sigBatch(reqs []Request) *crypto.SigBatch {
	batch := crypto.NewSigBatch(len(reqs))
	for i := range reqs {
		req := &reqs[i]
		batch.Add(crypto.NodeID(req.Client), req.Sig, func(w *wire.Buf) []byte {
			c.domain.AppendSigPayload(w, req)
			return w.Done()
		})
	}
	return batch
}

// kickVerify starts one request-verification round if none is in
// flight: every queued request's client signature is checked in a
// single batch on the verification pool off the Step loop (so the
// batch verifier engages), and the survivors are admitted by the apply
// half. Single-flight keeps at most one round outstanding; requests
// arriving meanwhile queue for the next round, so rounds grow under
// load. The apply half carries no view guard — client signatures are
// view-independent — and admit re-validates leadership per request, so
// a concurrent leader change can neither wedge the pipeline nor strand
// verified requests.
func (c *Core) kickVerify() {
	if c.verifying || len(c.unverified) == 0 {
		return
	}
	reqs := c.unverified
	c.unverified = nil
	c.verifying = true
	batch := c.sigBatch(reqs)
	var verdicts []bool
	c.Env.Defer("verify-req", func() {
		verdicts = batch.VerifyEach(crypto.SharedPool(), c.Suite)
	}, func() {
		c.verifying = false
		ok := reqs[:0]
		for i, v := range verdicts {
			if v {
				ok = append(ok, reqs[i])
			}
		}
		c.admit(ok)
		c.kickVerify()
	})
}

// VerifyBatch checks every client signature in b on the verification
// pool, off the Step loop, and delivers the verdict to done back on
// the loop: a backup does not take the leader's word for its clients.
// One bad signature fails the whole batch. Other events interleave
// before done runs, so done must re-validate whatever it depends on.
func (c *Core) VerifyBatch(b *Batch, done func(ok bool)) {
	batch := c.sigBatch(b.Reqs)
	var ok bool
	c.Env.Defer("verify-batch", func() {
		ok = batch.VerifyAll(crypto.SharedPool(), c.Suite)
	}, func() { done(ok) })
}

// admit takes verified requests, re-running the checks that may have
// changed while verification was in flight: duplicates are answered
// from the cache, and if leadership moved the request is re-routed to
// the current leader instead of being dropped.
func (c *Core) admit(reqs []Request) {
	for i := range reqs {
		switch {
		case c.answered(&reqs[i]):
		case !c.IsLeader():
			c.Env.Send(c.Leader(), &MsgRequest{Req: reqs[i]})
		default:
			c.enqueue(reqs[i])
		}
	}
	c.schedule()
}

// enqueue queues a verified request for the next batch cut. Only a
// leader change lets this queue back up — otherwise schedule drains it
// below BatchSize before the next event — so only then is it bounded.
func (c *Core) enqueue(req Request) {
	if c.Electing && len(c.pending) >= QueueCap {
		c.Dropped++
		return
	}
	c.pending = append(c.pending, req)
}

// schedule cuts full batches now and arms the batch timer for a
// partial one. During a leader change requests just queue; the
// protocol calls Flush once the new view is installed.
func (c *Core) schedule() {
	if !c.IsLeader() || c.Electing || len(c.pending) == 0 {
		return
	}
	if len(c.pending) >= c.Cfg.BatchSize {
		c.cut(false)
	} else if !c.batchTimerSet {
		c.batchTimer = c.Env.SetTimer(c.Cfg.BatchTimeout, "batch")
		c.batchTimerSet = true
	}
}

// Flush proposes what is queued even if it does not fill a batch. The
// batch timer calls it; so does a protocol that has just become
// leader.
func (c *Core) Flush() { c.cut(true) }

func (c *Core) cut(force bool) {
	if !c.IsLeader() || c.Electing {
		return
	}
	for len(c.pending) >= c.Cfg.BatchSize || (force && len(c.pending) > 0) {
		n := min(len(c.pending), c.Cfg.BatchSize)
		b := Batch{Reqs: append([]Request(nil), c.pending[:n]...)}
		c.pending = c.pending[n:]
		c.hooks.Propose(b)
		force = false
	}
}

// Execute applies a decided entry at most once per request — a
// request at or below its client's last executed timestamp gets the
// cached reply instead of running again — reports each commit to the
// Observer and hands each reply to the protocol's reply rule.
func (c *Core) Execute(e *Entry, reply func(client smr.NodeID, ts uint64, rep []byte)) {
	for i := range e.Batch.Reqs {
		req := &e.Batch.Reqs[i]
		var rep []byte
		if req.TS <= c.lastExec[req.Client] {
			rep = c.replies[req.Client]
		} else {
			rep = c.app.Execute(req.Op)
			c.lastExec[req.Client] = req.TS
			c.replies[req.Client] = rep
		}
		if c.Cfg.Observer != nil {
			c.Cfg.Observer(smr.Committed{Replica: c.ID, View: e.View, Seq: e.SN, Client: req.Client, ClientTS: req.TS})
		}
		reply(req.Client, req.TS, rep)
	}
}
