package xpaxos

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wal"
	"github.com/xft-consensus/xft/internal/wire"
)

// status is the replica's operating mode.
type status int

const (
	statusNormal status = iota
	statusViewChange
)

type watchKey struct {
	Client smr.NodeID
	TS     uint64
}

// watchState tracks a retransmitted request being monitored by the
// active replicas (Algorithm 4).
type watchState struct {
	key     watchKey
	timer   smr.TimerID
	sigs    map[smr.NodeID]ReplySig
	started bool
	// view records the view the timer was (re)armed in: an expiry only
	// suspects that same view — a watch that straddles a view change
	// re-arms instead, giving the new synchronous group a full timeout
	// to make progress.
	view smr.View
	// ex records the replica's execution mark at (re)arm time. An
	// expiry while execution has advanced past it means the group is
	// draining a backlog, not stalled: the watch re-arms instead of
	// suspecting, up to maxWatchGraces times. Without the grace, a
	// large client population makes every view change metastable — the
	// new group can never clear the accumulated requests within one
	// timeout, watches expire, the view is suspected, and the cycle
	// repeats. The cap keeps censorship detectable: a primary that
	// commits everyone else's requests but starves this one still gets
	// suspected after a bounded number of graces.
	ex smr.SeqNum
	// graces counts progress-based re-arms.
	graces int
}

// maxWatchGraces bounds how many times a watch defers to execution
// progress before suspecting the view anyway.
const maxWatchGraces = 8

// cachedReply remembers the last reply sent to a client, for
// at-most-once execution and retransmission.
type cachedReply struct {
	TS   uint64
	SN   smr.SeqNum
	View smr.View
	Rep  []byte
}

// Replica is an XPaxos replica. It implements smr.Node; all state is
// confined to the event loop, so it needs no locking.
type Replica struct {
	env   smr.Env
	cfg   Config
	id    smr.NodeID
	n, t  int
	suite crypto.Suite
	app   smr.Application

	view   smr.View
	status status
	group  []smr.NodeID

	// sn is the last sequence number prepared locally, ex the last
	// executed. log holds everything kept per sequence number (seqlog.go);
	// all access goes through slot and candidate.
	sn, ex smr.SeqNum
	log    seqLog

	// Batching and pipelining (primary only). intake is the bounded
	// admission queue of client requests awaiting batch formation;
	// maxInFlight records the high-water mark of
	// assigned-but-unexecuted sequence numbers, for tests and stats.
	intake        admissionQueue
	batchTimer    smr.TimerID
	batchTimerSet bool
	maxInFlight   int

	// verifyPool scatters independent signature verifications (batch
	// requests, certificates) across workers; nil verifies serially.
	verifyPool *crypto.Pool

	// ceCache memoizes verifyCommitEntry verdicts by content digest:
	// every view-change message re-hauls the unstable commit-log tail,
	// so churny view changes re-verify the same entries many times.
	ceCache map[crypto.Digest]bool

	// Async crypto pipeline. The hot-path handlers split into a
	// dispatch half that submits signature work through goCrypto and a
	// complete half that applies the results when the smr.Async
	// completion re-enters Step; the fields below track work in flight.
	// All of them are reset by enterView: completions submitted under
	// an older (view, status) epoch are discarded by goCrypto's guard.
	// intakeQ holds the primary's in-flight intake verifications,
	// retired strictly in dispatch order (see retireIntake) so a
	// client's pipelined requests keep their arrival order even when
	// verifications complete out of order.
	intakeQ []*intakeVerify
	// replySigning marks watch keys whose ReplySig is being signed.
	replySigning map[watchKey]bool
	// replySignVerifying dedupes and bounds in-flight reply-sign
	// verifications: the retransmission path is driven by unsolicited
	// peer messages, so without a cap a faulty active replica could
	// spawn one off-loop verification per flooded message.
	replySignVerifying map[replySigID]bool
	// fwdPending accumulates client requests a follower has yet to
	// verify before forwarding; one batch verifies off-loop at a time
	// (fwdInFlight), and arrivals meanwhile form the next batch.
	fwdPending  []Request
	fwdInFlight bool

	// Client bookkeeping: at-most-once execution and reply cache.
	lastExec map[smr.NodeID]execMark
	replies  replyCache
	// queued dedupes pipelined requests per (client, timestamp): an
	// open-loop client has up to a window of timestamps in flight and
	// may retransmit any of them, so a single per-client mark would
	// only suppress duplicates of the newest. The value is the
	// signature digest (see queuedMark doc below); entries are removed
	// at execution, when the request was found invalid, or on view
	// change, so the map is bounded by queued + in-flight requests.
	queued map[watchKey]crypto.Digest

	// Retransmission watches (Algorithm 4).
	watches     map[watchKey]*watchState
	watchTimers map[smr.TimerID]watchKey

	// Checkpointing.
	chk         CheckpointProof
	chkSnapshot []byte

	// Durability (durability.go). walPending and walInFlight survive
	// view changes — enterView must not reset them: unlike the crypto
	// pipeline, the durable log spans views, and the in-flight flag is
	// released by a completion that is deliberately not epoch-guarded.
	wal         wal.WAL
	walPending  []walRecord
	walInFlight bool
	walErr      error
	walDropped  uint64

	// View change (viewchange.go).
	seenSuspects map[suspectKey]bool
	vcState      *vcState
	futureVC     map[smr.View]map[smr.NodeID]*MsgViewChange
	futureFinal  map[smr.View]map[smr.NodeID]*MsgVCFinal
	futureNV     map[smr.View]*MsgNewView
	// vcConsec counts view changes attempted — a collection started
	// with a full timer_vc — since the last fresh batch execution. Each
	// consecutive unproductive attempt doubles timer_vc (capped), so a
	// run of bad luck with the group rotation — or a backlog too deep to
	// clear in one timeout — converges instead of churning through views
	// at the minimum period forever. Views skipped because a member is
	// known down (suspectDoomedView) are not attempts.
	vcConsec int

	// Fault detection (fd.go).
	preView     smr.View
	finalProofs map[smr.View][]MsgVCConfirm
	agreedVCSet map[smr.View]map[vcKey]*MsgViewChange
	fset        map[smr.NodeID]bool
	convicted   map[faultID]bool

	// downPeers is the level view of the runtime's edge-triggered
	// PeerDown/PeerUp health events: peers currently believed dead or
	// partitioned from us. Consulted when a view is entered, so a group
	// containing a known-dead member is suspected immediately.
	downPeers map[smr.NodeID]bool
}

// The queued marker remembers the request's signature digest because
// intake verification is deferred to batch formation: a forged copy
// may reach the queue first, and the mark alone must not let it
// suppress the honest client's request (see onRequest).

type suspectKey struct {
	View smr.View
	From smr.NodeID
}

// replySigID identifies one replica's signed-reply record for one
// watched request (in-flight verification dedupe).
type replySigID struct {
	Client smr.NodeID
	TS     uint64
	From   smr.NodeID
}

// maxReplySignVerifying bounds concurrent off-loop reply-sign
// verifications; floods beyond it are dropped (the retransmission
// protocol re-offers anything that mattered).
const maxReplySignVerifying = 256

// intakeVerify is one drained slice of candidate requests whose client
// signatures are checked off-loop before batch assignment.
type intakeVerify struct {
	cand     []Request
	verdicts []bool
	done     bool
}

type faultID struct {
	Culprit smr.NodeID
	Kind    string
	SN      smr.SeqNum
}

// NewReplica builds the replica with the given identity and
// application. The replica joins view 0.
func NewReplica(id smr.NodeID, cfg Config, app smr.Application) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		cfg:                cfg,
		id:                 id,
		n:                  cfg.N,
		t:                  cfg.T,
		suite:              cfg.Suite,
		app:                app,
		log:                seqLog{ahead: smr.SeqNum(logAheadWindows * cfg.PipelineWindow)},
		lastExec:           make(map[smr.NodeID]execMark),
		replies:            make(replyCache),
		queued:             make(map[watchKey]crypto.Digest),
		watches:            make(map[watchKey]*watchState),
		watchTimers:        make(map[smr.TimerID]watchKey),
		seenSuspects:       make(map[suspectKey]bool),
		ceCache:            make(map[crypto.Digest]bool),
		futureVC:           make(map[smr.View]map[smr.NodeID]*MsgViewChange),
		futureFinal:        make(map[smr.View]map[smr.NodeID]*MsgVCFinal),
		futureNV:           make(map[smr.View]*MsgNewView),
		finalProofs:        make(map[smr.View][]MsgVCConfirm),
		agreedVCSet:        make(map[smr.View]map[vcKey]*MsgViewChange),
		fset:               make(map[smr.NodeID]bool),
		convicted:          make(map[faultID]bool),
		replySigning:       make(map[watchKey]bool),
		replySignVerifying: make(map[replySigID]bool),
		downPeers:          make(map[smr.NodeID]bool),
	}
	r.intake.init(cfg.IntakeQueueCap, cfg.IntakePerClient)
	switch {
	case cfg.VerifyWorkers == 1:
		r.verifyPool = nil // serial verification in the event loop
	case cfg.VerifyWorkers > 1:
		r.verifyPool = crypto.NewPool(cfg.VerifyWorkers)
	default:
		r.verifyPool = crypto.SharedPool()
	}
	r.group = SyncGroup(r.n, r.t, 0)
	if cfg.WAL != nil {
		r.wal = cfg.WAL
		r.recoverFromWAL()
	}
	return r
}

// View returns the replica's current view (exported for tests and
// experiment harnesses).
func (r *Replica) View() smr.View { return r.view }

// Executed returns the last executed sequence number.
func (r *Replica) Executed() smr.SeqNum { return r.ex }

// CommitLogEntry returns the commit-log entry at sn, if present.
func (r *Replica) CommitLogEntry(sn smr.SeqNum) (*CommitEntry, bool) {
	if s := r.slot(sn); s != nil && s.commit != nil {
		return s.commit, true
	}
	return nil, false
}

// slot returns the log slot of sn, or nil when sn is at or below the
// stable checkpoint or more than the log's look-ahead beyond the
// execution mark (see seqLog). Handlers call it before scheduling any
// signature check, so a sequence number outside the window costs a
// peer's message nothing but the parse.
func (r *Replica) slot(sn smr.SeqNum) *slot { return r.log.slot(sn, r.ex) }

// candidate returns the checkpoint candidate at height sn, or nil when
// sn is not a checkpoint height inside the log window.
func (r *Replica) candidate(sn smr.SeqNum) *chkCandidate {
	chk := r.cfg.CheckpointInterval
	if chk == 0 || uint64(sn)%chk != 0 {
		return nil
	}
	s := r.slot(sn)
	if s == nil {
		return nil
	}
	if s.chk == nil {
		s.chk = new(chkCandidate)
	}
	return s.chk
}

// InViewChange reports whether the replica is mid view change.
func (r *Replica) InViewChange() bool { return r.status == statusViewChange }

// Init implements smr.Node.
func (r *Replica) Init(env smr.Env) { r.env = env }

// Step implements smr.Node.
func (r *Replica) Step(ev smr.Event) {
	switch e := ev.(type) {
	case smr.Start:
		// Nothing scheduled at boot; timers start with activity.
	case smr.TimerFired:
		r.onTimer(e)
	case smr.Recv:
		r.onRecv(e.From, e.Msg)
	case smr.Async:
		e.Apply() // completion of off-loop crypto (see goCrypto)
	case smr.PeerDown:
		r.onPeerDown(e)
	case smr.PeerUp:
		delete(r.downPeers, e.Peer)
		r.suspectDoomedView() // the recovery may have made a better view viable
	}
}

// onPeerDown reacts to the runtime's connection-health signal: an
// active-group member gone silent means the common case cannot make
// progress in this view (every entry needs the whole synchronous
// group), so suspect it now instead of waiting for a client
// retransmission to arm a watch and time out. The fault detector thus
// monitors continuously rather than auditing only at view change. The
// peer is also remembered in downPeers (the events are edge-triggered;
// the protocol wants level state), so a later view that rotates the
// dead peer back into the group is suspected as soon as it is entered
// — see suspectDoomedView.
func (r *Replica) onPeerDown(e smr.PeerDown) {
	if e.Peer == r.id {
		return
	}
	r.downPeers[e.Peer] = true
	r.suspectDoomedView()
}

// suspectDoomedView suspects the current view if a member of its
// synchronous group is known down and a better view exists — the
// NextViableView rule. It runs whenever the view or the down set
// changes (view entry, PeerDown, PeerUp), in normal operation and mid
// view change alike: an active replica may always suspect its own
// view, so a view change that cannot complete is abandoned at gossip
// speed instead of burning timer_vc rediscovering a known fault, and
// the rotation lands on the first viable group. It reports whether the
// replica moved on.
//
// With more than t peers down every group contains one, so skipping is
// futile — the cascade would spin through view numbers at gossip speed
// for as long as the outage lasts. NextViableView then reports no
// viable view and the timers rediscover the fault once enough peers
// answer probes again.
func (r *Replica) suspectDoomedView() bool {
	if !r.isActive() {
		return false
	}
	v := r.view
	if next, ok := NextViableView(r.n, r.t, v, r.downPeers); !ok || next == v {
		return false
	}
	if r.vcState != nil && r.vcConsec > 0 {
		// This view's collection started a full timer_vc and was counted
		// as a view-change attempt; abandoning it over a known-dead member
		// says nothing about how long a view change needs. (The count can
		// already be back at zero: a lazily replicated entry executed
		// since.)
		r.vcConsec--
	}
	r.suspect(v)
	return r.view > v
}

// goCrypto runs work off the event loop through the runtime's async
// pipeline (Env.Defer) and applies its results back on the loop. The
// completion is dropped if the replica has left the epoch it was
// submitted in: a view change invalidates in-flight verifications and
// signatures, whose outputs name the dead view. The epoch is the view
// plus "currently in normal operation" — within one view the only
// status transition is view-change → normal (starting a view change
// always bumps the view), so a completion dispatched mid-view-change
// (a follower forward verification, a reply signature from the
// new-view re-commit) legitimately applies once that same view's
// change completes, while anything from an older view is discarded.
func (r *Replica) goCrypto(kind string, work func(), apply func()) {
	view := r.view
	r.env.Defer(kind, work, func() {
		if r.view != view || r.status != statusNormal {
			return // stale completion from a dead view
		}
		apply()
	})
}

func (r *Replica) onTimer(e smr.TimerFired) {
	switch e.Kind {
	case "batch":
		if e.ID == r.batchTimer {
			r.batchTimerSet = false
			r.flushBatches(true)
		}
	case "watch":
		if key, ok := r.watchTimers[e.ID]; ok {
			delete(r.watchTimers, e.ID)
			r.onWatchExpired(key)
		}
	case "vc-net":
		r.onNetTimer(e.ID)
	case "vc":
		r.onVCTimer(e.ID)
	}
}

func (r *Replica) onRecv(from smr.NodeID, msg smr.Message) {
	switch m := msg.(type) {
	case *MsgReplicate:
		r.onRequest(from, m.Req, false)
	case *MsgResend:
		r.onResend(from, m.Req)
	case *MsgPrepare:
		r.onPrepare(from, m)
	case *MsgCommitReq:
		r.onCommitReq(from, m)
	case *MsgCommit:
		r.onCommit(from, m)
	case *MsgReplySign:
		r.onReplySign(from, m)
	case *MsgSuspect:
		r.onSuspect(from, m)
	case *MsgViewChange:
		r.onViewChange(from, m)
	case *MsgVCFinal:
		r.onVCFinal(from, m)
	case *MsgVCConfirm:
		r.onVCConfirm(from, m)
	case *MsgNewView:
		r.onNewView(from, m)
	case *MsgPrechk:
		r.onPrechk(from, m)
	case *MsgChkpt:
		r.onChkpt(from, m)
	case *MsgLazyChk:
		r.onLazyChk(from, m)
	case *MsgLazyCommit:
		r.onLazyCommit(from, m)
	case *MsgFaultProof:
		r.onFaultProof(from, m)
	case *MsgForkIIQuery:
		r.onForkIIQuery(from, m)
	}
}

// ---------------------------------------------------------------------------
// Role helpers
// ---------------------------------------------------------------------------

func (r *Replica) primary() smr.NodeID     { return r.group[0] }
func (r *Replica) isPrimary() bool         { return r.id == r.group[0] }
func (r *Replica) followers() []smr.NodeID { return r.group[1:] }

func (r *Replica) isActive() bool { return slices.Contains(r.group, r.id) }

// primaryKind is the kind of order a primary signs: a commit for t = 1
// (Figure 2b: m0 = ⟨commit, D(req), sn, i⟩σ_ps), a prepare for t ≥ 2
// (Figure 2a).
func (r *Replica) primaryKind() OrderKind {
	if r.t == 1 {
		return KindCommit
	}
	return KindPrepare
}

// followerPos returns the 0-based position of id among the current
// view's followers, or -1.
func (r *Replica) followerPos(id smr.NodeID) int { return slices.Index(r.group[1:], id) }

// followerIndex returns the 0-based index of id among the followers of
// view v, or -1.
func followerIndex(n, t int, v smr.View, id smr.NodeID) int {
	return slices.Index(SyncGroup(n, t, v)[1:], id)
}

// sendActives sends m to every active replica except self.
func (r *Replica) sendActives(m smr.Message) {
	for _, id := range r.group {
		if id != r.id {
			r.env.Send(id, m)
		}
	}
}

// sendAllReplicas sends m to every replica except self.
func (r *Replica) sendAllReplicas(m smr.Message) {
	for i := 0; i < r.n; i++ {
		if smr.NodeID(i) != r.id {
			r.env.Send(smr.NodeID(i), m)
		}
	}
}

// ---------------------------------------------------------------------------
// Common case: request intake and batching (primary)
// ---------------------------------------------------------------------------

// onRequest handles a client request arriving at any active replica.
// Non-primaries forward to the primary (this also covers the
// client-broadcast path after a timeout).
func (r *Replica) onRequest(from smr.NodeID, req Request, forwarded bool) {
	if !r.isActive() {
		return
	}
	// Client-signature verification is deferred to batch formation,
	// where the whole batch's signatures scatter across the
	// verification pool in one call instead of costing the event loop
	// one serial public-key operation per arrival. Paths that act on a
	// request immediately still verify inline.
	// At-most-once: an already-executed request gets the cached reply.
	// A not-yet-executed timestamp inside the window (a shed request
	// returning via retransmission) falls through to normal admission.
	if r.lastExec[req.Client].executed(req.TS) {
		if c, ok := r.replies.get(req.Client, req.TS); ok && r.isPrimary() && r.verifyRequest(&req) {
			r.sendReply(req.Client, &req, c)
		}
		return
	}
	if !r.isPrimary() {
		if !forwarded {
			// Verify-before-forward: a follower authenticates the client
			// signature before relaying, so a forged-request blast is
			// absorbed here instead of being amplified into the
			// primary's intake (ROADMAP: request-intake hardening).
			// Arrivals accumulate while a verification batch is in
			// flight and scatter through the batch verifier together
			// (verifyForwards), so the per-request edge cost shrinks
			// under exactly the loads that need it; a lone forward
			// still verifies — and forwards — immediately.
			if len(r.fwdPending) >= r.cfg.IntakeQueueCap {
				// The unverified backlog is as bounded as the intake
				// queue; overflow is shed and counted like a forgery.
				r.intake.forwardDropped.Add(1)
				return
			}
			r.fwdPending = append(r.fwdPending, req)
			r.verifyForwards()
		}
		return
	}
	key := watchKey{Client: req.Client, TS: req.TS}
	sigD := crypto.Hash(req.Sig)
	if prev, ok := r.queued[key]; ok {
		if prev == sigD {
			return // identical copy already in the pipeline
		}
		// A different copy for the same (client, ts): the queued one is
		// unverified, so it could be a forgery racing the honest
		// request. Verify this copy inline — if it is genuine, queue it
		// too (batch formation discards the bad one); if not, ignore it
		// without letting it displace anything.
		if !r.verifyRequest(&req) {
			return
		}
	}
	// Once a client's queue is deep, further admissions must verify
	// up front: unverified requests charge the named client's quota,
	// which an attacker spraying forgeries in the victim's name could
	// otherwise pin full (see admissionQueue.pressured).
	if r.intake.pressured(req.Client) && !r.verifyRequest(&req) {
		r.intake.pressureDropped.Add(1)
		return
	}
	if !r.intake.admit(req) {
		// Shed by the admission bounds. Leave no marker: a
		// retransmission after the overload clears must be judged
		// fresh, not suppressed as a duplicate.
		return
	}
	r.queued[key] = sigD
	r.flushBatches(false)
}

// IntakeStats reports the replica's request-intake health: admission
// queue depth, cumulative admissions and sheds, and follower-side
// forward drops. Safe to call from any goroutine.
func (r *Replica) IntakeStats() IntakeStats { return r.intake.stats() }

func (r *Replica) verifyRequest(req *Request) bool {
	w := wire.Get()
	ok := r.suite.Verify(crypto.NodeID(req.Client), req.appendSigPayload(w), req.Sig)
	wire.Put(w)
	return ok
}

// verifyForwards drains the follower's pending forward backlog through
// the crypto pipeline, one batch in flight at a time: requests
// arriving while a batch verifies accumulate into the next one, so
// bursts amortize across one batch-verifier pass with no added timer
// or latency for a lone request. Valid requests are relayed to the
// primary; invalid ones are shed and counted.
func (r *Replica) verifyForwards() {
	if r.fwdInFlight || len(r.fwdPending) == 0 {
		return
	}
	cand := r.fwdPending
	r.fwdPending = nil
	r.fwdInFlight = true
	b := newSigBatch(len(cand))
	for i := range cand {
		b.add(crypto.NodeID(cand[i].Client), cand[i].Sig, cand[i].appendSigPayload)
	}
	var verdicts []bool
	r.goCrypto("verify-forward",
		func() { verdicts = b.verifyEach(r.verifyPool, r.suite) },
		func() {
			r.fwdInFlight = false
			for i, ok := range verdicts {
				if !ok {
					r.intake.forwardDropped.Add(1)
					continue
				}
				r.env.Send(r.primary(), &MsgReplicate{Req: cand[i]})
			}
			r.verifyForwards()
		})
}

// inFlight returns the number of sequence numbers the replica has
// assigned but not yet executed — the occupied pipeline slots at the
// primary.
func (r *Replica) inFlight() int {
	if r.sn <= r.ex {
		return 0
	}
	return int(r.sn - r.ex)
}

// MaxInFlight returns the high-water mark of concurrently in-flight
// sequence numbers (exported for tests and stats).
func (r *Replica) MaxInFlight() int { return r.maxInFlight }

// pipelineKeepBusy is the in-flight depth below which a partial batch
// ships immediately: with the primary and follower stages overlapped,
// two outstanding batches keep both busy, so holding a partial back to
// fill it would idle a stage. At or above this depth, partial batches
// wait for more requests (amortizing per-batch signatures) until the
// batch timer bounds the delay.
const pipelineKeepBusy = 2

// flushBatches drains pending requests into sequence-numbered
// proposals, keeping at most PipelineWindow batches in flight — where
// "in flight" counts both assigned sequence numbers and batches still
// in signature verification (intakeQ). Batch formation is adaptive: a
// full batch is dispatched whenever the window has room; a partial
// batch is dispatched immediately while the pipeline is hungry (fewer
// than pipelineKeepBusy batches in flight), and otherwise waits to
// fill until the batch timer forces it out (force=true). Under load,
// backpressure grows batches naturally: requests accumulate while the
// window is busy and drain into one proposal when a slot frees.
func (r *Replica) flushBatches(force bool) {
	if r.status != statusNormal || !r.isPrimary() {
		return
	}
	for r.intake.size() > 0 && r.inFlight()+len(r.intakeQ) < r.cfg.PipelineWindow {
		if r.intake.size() < r.cfg.BatchSize && !force && r.inFlight()+len(r.intakeQ) >= pipelineKeepBusy {
			break // partial batch and both stages are busy: let it fill
		}
		// Drain round-robin across clients: under overload every
		// client lands requests in each batch instead of the queue
		// head's owner monopolizing it.
		r.dispatchIntake(r.intake.drain(r.cfg.BatchSize))
		force = false
	}
	// Anything left waits for more requests, a commit that frees a
	// window slot, or the batch timer.
	if r.intake.size() > 0 && !r.batchTimerSet {
		r.batchTimer = r.env.SetTimer(r.cfg.BatchTimeout, "batch")
		r.batchTimerSet = true
	}
}

// dispatchIntake submits the candidates' client-signature checks —
// deferred from arrival so the whole batch verifies in one parallel
// scatter — and queues the batch for in-order retirement. While the
// batch verifies off-loop, the loop is free to assemble the next one:
// verification of batch k+1 overlaps signing and assembly of batch k.
func (r *Replica) dispatchIntake(cand []Request) {
	iv := &intakeVerify{cand: cand}
	r.intakeQ = append(r.intakeQ, iv)
	b := newSigBatch(len(cand))
	for i := range cand {
		b.add(crypto.NodeID(cand[i].Client), cand[i].Sig, cand[i].appendSigPayload)
	}
	r.goCrypto("verify-intake",
		func() { iv.verdicts = b.verifyEach(r.verifyPool, r.suite) },
		func() {
			iv.done = true
			r.retireIntake()
		})
}

// retireIntake assigns sequence numbers to verified intake batches in
// dispatch order. Completions may arrive out of order; retiring only
// the done prefix keeps batch order equal to drain order, so a
// client's pipelined requests never reorder. An invalid request is
// dropped and its queued marker cleared, so a later valid
// retransmission from the same client is not mistaken for a duplicate.
func (r *Replica) retireIntake() {
	retired := false
	for len(r.intakeQ) > 0 && r.intakeQ[0].done {
		iv := r.intakeQ[0]
		r.intakeQ = r.intakeQ[1:]
		retired = true
		reqs := make([]Request, 0, len(iv.cand))
		for i, ok := range iv.verdicts {
			if !ok {
				// Clear the marker only if it is this copy's: a valid
				// copy queued alongside keeps its own mark.
				key := watchKey{Client: iv.cand[i].Client, TS: iv.cand[i].TS}
				if r.queued[key] == crypto.Hash(iv.cand[i].Sig) {
					delete(r.queued, key)
				}
				continue
			}
			reqs = append(reqs, iv.cand[i])
		}
		if len(reqs) > 0 {
			r.assignBatch(Batch{Reqs: reqs})
		}
	}
	if retired {
		// Retirement freed window slots; refill them.
		r.flushBatches(false)
	}
}

// sigBatch accumulates independent signature checks whose payloads
// live in pooled wire buffers; the verify methods release every buffer
// after the verdict, keeping the Get/Put pairing in one place.
type sigBatch struct {
	jobs []crypto.VerifyJob
	bufs []*wire.Buf
}

func newSigBatch(capacity int) sigBatch {
	return sigBatch{
		jobs: make([]crypto.VerifyJob, 0, capacity),
		bufs: make([]*wire.Buf, 0, capacity),
	}
}

// add appends one check; payload writes the signed bytes into the
// pooled buffer it is handed (e.g. Request.appendSigPayload).
func (b *sigBatch) add(id crypto.NodeID, sig crypto.Signature, payload func(*wire.Buf) []byte) {
	w := wire.Get()
	b.bufs = append(b.bufs, w)
	b.jobs = append(b.jobs, crypto.VerifyJob{ID: id, Data: payload(w), Sig: sig})
}

func (b *sigBatch) release() {
	for _, w := range b.bufs {
		wire.Put(w)
	}
	b.bufs = b.bufs[:0]
}

// verifyAll scatters the checks across pool and reports whether every
// one passed.
func (b *sigBatch) verifyAll(pool *crypto.Pool, suite crypto.Suite) bool {
	ok := pool.VerifyAll(suite, b.jobs)
	b.release()
	return ok
}

// verifyEach scatters the checks across pool and reports each verdict.
func (b *sigBatch) verifyEach(pool *crypto.Pool, suite crypto.Suite) []bool {
	out := pool.VerifyEach(suite, b.jobs)
	b.release()
	return out
}

// assignBatch gives the batch the next sequence number and starts the
// common-case protocol (Section 4.2). The sequence number is claimed
// on the spot — later batches may be dispatched meanwhile — while the
// order signature is produced off-loop; the prepare ships when it
// completes. Followers buffer out-of-order arrivals (slot.buffered), so
// signing completions need not preserve dispatch order.
func (r *Replica) assignBatch(batch Batch) {
	r.sn++
	if f := r.inFlight(); f > r.maxInFlight {
		r.maxInFlight = f
	}
	sn := r.sn
	o := &Order{Kind: r.primaryKind(), BatchD: batch.Digest(), SN: sn, View: r.view, From: r.id}
	r.goCrypto("sign-order",
		func() { signOrderInto(r.suite, o) },
		func() {
			s := r.slot(sn)
			if s == nil {
				return // the log was wiped while signing (fault injection)
			}
			entry := &PrepareEntry{Batch: batch, Primary: *o}
			s.prepare = entry
			r.preView = r.view
			if r.t == 1 {
				r.env.Send(r.followers()[0], &MsgCommitReq{Entry: *entry})
				return
			}
			// Figure 2a: prepare to all followers.
			for _, f := range r.followers() {
				r.env.Send(f, &MsgPrepare{Entry: *entry})
			}
		})
}

// ---------------------------------------------------------------------------
// Common case, t = 1 (Algorithm 1)
// ---------------------------------------------------------------------------

// onCommitReq is the t = 1 follower receiving ⟨req, m0⟩.
func (r *Replica) onCommitReq(from smr.NodeID, m *MsgCommitReq) {
	if r.t == 1 {
		r.admitPrepareEntry(from, m.Entry, r.drainFollowerT1)
	}
}

// admitPrepareEntry runs the follower's acceptance of a primary's
// entry in two halves: the structural binding (kind, sender, batch
// digest) checks synchronously, then the entry's signatures — the
// primary's order plus every client request — verify off-loop as one
// parallel scatter. A valid entry is buffered in its slot and drain
// processes it in sequence order, so verification of entry sn+1
// overlaps execution and signing of entry sn.
func (r *Replica) admitPrepareEntry(from smr.NodeID, entry PrepareEntry, drain func()) {
	if r.status != statusNormal || r.followerPos(r.id) < 0 || entry.View() != r.view || from != r.primary() {
		return // only a follower takes entries, and only from its view's primary
	}
	e := &entry
	sn := e.SN()
	s := r.slot(sn)
	if s == nil || sn <= r.sn || s.buffered != nil || s.entryVerifying {
		return // outside the log window, already processed, buffered, or in verification
	}
	if !r.checkPrepareEntryShape(e) {
		r.suspect(r.view) // invalid message from an active replica
		return
	}
	b := newSigBatch(len(e.Batch.Reqs) + 1)
	b.add(crypto.NodeID(e.Primary.From), e.Primary.Sig, e.Primary.appendSigPayload)
	for i := range e.Batch.Reqs {
		req := &e.Batch.Reqs[i]
		b.add(crypto.NodeID(req.Client), req.Sig, req.appendSigPayload)
	}
	s.entryVerifying = true
	var ok bool
	r.goCrypto("verify-prepare",
		func() { ok = b.verifyAll(r.verifyPool, r.suite) },
		func() {
			s := r.slot(sn)
			if s != nil {
				s.entryVerifying = false
			}
			if !ok {
				r.suspect(r.view)
				return
			}
			if s == nil || sn <= r.sn || s.buffered != nil {
				return // superseded while verifying (checkpoint adoption)
			}
			s.buffered = e
			drain()
		})
}

// drainFollowerT1 processes buffered entries in sequence order.
func (r *Replica) drainFollowerT1() {
	for {
		s := r.slot(r.sn + 1)
		if s == nil || s.buffered == nil {
			return
		}
		e := s.buffered
		s.buffered = nil
		r.sn++
		sn := r.sn
		// Execute immediately (the follower runs ahead of the primary,
		// Section 4.2.2) and sign m1 over the reply root. Execution and
		// the local log updates happen now, in sequence order; only the
		// m1 signature is produced off-loop, so the next entry's
		// execution overlaps this one's signing. The commit entry — and
		// everything that needs it — materializes when the signature
		// lands.
		tss, reps := r.applyBatch(&e.Batch, sn, e.Primary.View)
		digs := make([]crypto.Digest, len(reps))
		for i, rep := range reps {
			digs[i] = crypto.Hash(rep)
		}
		root := ReplyRoot(tss, digs)
		s.prepare = &PrepareEntry{Batch: e.Batch, Primary: e.Primary}
		r.ex = sn
		r.maybeCheckpoint(sn)
		m1 := &Order{Kind: KindCommit, BatchD: e.Primary.BatchD, SN: sn, View: r.view, From: r.id, RepRoot: root}
		r.goCrypto("sign-order",
			func() { signOrderInto(r.suite, m1) },
			func() {
				s := r.slot(sn)
				if s == nil {
					// A checkpoint stabilized past sn while signing; the
					// primary necessarily assembled sn already, so the
					// commit is moot and storing it would resurrect a
					// truncated log entry.
					return
				}
				entry := &CommitEntry{Batch: e.Batch, Primary: e.Primary, Commits: []Order{*m1}}
				s.commit = entry
				r.logCommitEntry(entry)
				r.notifyCommit(entry)
				r.env.Send(r.primary(), &MsgCommit{Order: *m1})
				r.lazyReplicate(entry)
			})
	}
}

// ---------------------------------------------------------------------------
// Common case, t ≥ 2 (Algorithm 2)
// ---------------------------------------------------------------------------

// onPrepare is a follower receiving the primary's ⟨req, prepare⟩.
func (r *Replica) onPrepare(from smr.NodeID, m *MsgPrepare) {
	if r.t >= 2 {
		r.admitPrepareEntry(from, m.Entry, r.drainFollowerPrepares)
	}
}

func (r *Replica) drainFollowerPrepares() {
	for {
		s := r.slot(r.sn + 1)
		if s == nil || s.buffered == nil {
			return
		}
		e := s.buffered
		s.buffered = nil
		r.sn++
		sn := r.sn
		s.prepare = e
		r.preView = r.view
		// The commit signature is produced off-loop; the vote is
		// recorded and broadcast when it lands. The drain keeps going
		// meanwhile, so consecutive entries' commit signing overlaps.
		c := &Order{Kind: KindCommit, BatchD: e.Primary.BatchD, SN: sn, View: r.view, From: r.id}
		r.goCrypto("sign-order",
			func() { signOrderInto(r.suite, c) },
			func() {
				s := r.slot(sn)
				if s == nil {
					return // checkpoint stabilized past sn while signing
				}
				r.addCommitVote(s, *c)
				r.sendActives(&MsgCommit{Order: *c})
				r.tryAssemble(sn)
			})
	}
}

// onCommit handles a commit order: for t = 1 this is m1 at the
// primary; for t ≥ 2 it is a follower's commit at any active replica.
// The signature check runs off-loop; the vote is applied when it
// lands, so a stream of commits for consecutive sequence numbers
// verifies while earlier ones assemble and execute.
func (r *Replica) onCommit(from smr.NodeID, m *MsgCommit) {
	if r.status != statusNormal || !r.isActive() {
		return
	}
	o := m.Order
	pos := r.followerPos(from)
	if o.View != r.view || o.From != from || pos < 0 {
		return
	}
	s := r.slot(o.SN)
	if s == nil {
		return // outside the log window: neither stored nor verified
	}
	verifying := uint64(1) << pos
	if s.votes != nil && s.votes[pos].Sig != nil {
		return // this follower's vote is already recorded
	}
	if s.orderVerifying&verifying != 0 {
		return // a copy is already in verification
	}
	s.orderVerifying |= verifying
	var valid bool
	r.goCrypto("verify-order",
		func() { valid = verifyOrder(r.suite, &o) },
		func() {
			s := r.slot(o.SN)
			if s != nil {
				s.orderVerifying &^= verifying
			}
			if !valid {
				r.suspect(r.view)
				return
			}
			if s == nil {
				return // checkpoint stabilized past this entry meanwhile
			}
			r.addCommitVote(s, o)
			r.tryAssemble(o.SN)
		})
}

// addCommitVote records a current-group follower's commit order in s.
func (r *Replica) addCommitVote(s *slot, o Order) {
	if s.votes == nil {
		s.votes = make([]Order, r.t)
	}
	s.votes[r.followerPos(o.From)] = o
}

// tryAssemble completes CommitLog[sn] once the prepare entry and all t
// follower commits with matching digests are present. An entry
// committed in an older view may be superseded by the re-commit of the
// new view.
func (r *Replica) tryAssemble(sn smr.SeqNum) {
	s := r.slot(sn)
	if s == nil || s.prepare == nil || s.votes == nil {
		return
	}
	pe := s.prepare
	if s.commit != nil && s.commit.View() >= pe.View() {
		return
	}
	for i := range s.votes {
		o := &s.votes[i]
		if o.Sig == nil || o.BatchD != pe.Primary.BatchD || o.View != pe.Primary.View {
			return
		}
	}
	// The votes sit in follower order, which is the certificate's.
	entry := &CommitEntry{Batch: pe.Batch, Primary: pe.Primary, Commits: s.votes}
	s.commit = entry
	s.votes = nil
	r.logCommitEntry(entry)
	r.notifyCommit(entry)
	if sn <= r.ex {
		// Re-commit of an already-executed entry (view change):
		// answer the waiting clients from the reply cache.
		r.resendCommittedReplies(entry)
	} else {
		r.tryExecute()
	}
	if r.t >= 2 {
		r.lazyReplicate(entry)
	}
}

// tryExecute applies contiguous committed entries. The t = 1 follower
// never goes through here for fresh entries (it executes in
// drainFollowerT1); the t = 1 primary and all t ≥ 2 actives do.
func (r *Replica) tryExecute() {
	for {
		s := r.slot(r.ex + 1)
		if s == nil || s.commit == nil {
			break
		}
		entry, sn := s.commit, r.ex+1
		tss, reps := r.applyBatch(&entry.Batch, sn, entry.View())
		r.ex = sn
		r.maybeCheckpoint(sn)
		r.sendReplies(entry, sn, tss, reps)
		if r.status != statusNormal {
			// Synchronous mode can suspect inline (reply-root mismatch);
			// stop executing into a view change like the classic path.
			return
		}
	}
	// Execution advanced, freeing pipeline slots: the primary drains the
	// pending queue into the next proposals.
	r.flushBatches(false)
}

// sendReplies builds and sends the client replies for a freshly
// executed entry. The hashing, Merkle proofs and per-client MACs —
// the last crypto residue on the execution hot path — run off the Step
// loop through goCrypto; the sends (and, for t = 1, the reply-root
// divergence verdict) apply when the work lands. A view change
// in-between drops the completion: clients recover the lost replies
// via retransmission (resendCommittedReplies / Algorithm 4), exactly
// as if the replies had been lost on the wire.
func (r *Replica) sendReplies(entry *CommitEntry, sn smr.SeqNum, tss []uint64, reps [][]byte) {
	primary := r.isPrimary()
	if r.t == 1 && !primary {
		return // the t = 1 follower's answer travels inside the primary's reply
	}
	view := r.view
	out := make([]smr.Message, len(entry.Batch.Reqs))
	rootOK := true
	r.goCrypto("mac-reply",
		func() {
			if r.t >= 2 {
				for i := range out {
					out[i] = r.groupReply(primary, entry.Batch.Reqs[i].Client, sn, view, tss[i], reps[i])
				}
				return
			}
			digs := make([]crypto.Digest, len(reps))
			for i, rep := range reps {
				digs[i] = crypto.Hash(rep)
			}
			// Check the follower's reply digest (Section 4.2.2) before
			// answering clients: a mismatch means one of us diverged.
			m1 := entry.Commits[0]
			leaves := ReplyLeaves(tss, digs)
			if m1.RepRoot != crypto.MerkleRoot(leaves) {
				rootOK = false
				return
			}
			for i := range out {
				rep := &MsgReply{
					From: r.id, SN: sn, View: view, TS: tss[i], Rep: reps[i],
					Proof: crypto.BuildMerkleProof(leaves, i), FollowerCommit: &m1,
				}
				rep.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(entry.Batch.Reqs[i].Client), rep.MACPayload())
				out[i] = rep
			}
		},
		func() {
			if !rootOK {
				r.suspect(r.view)
				return
			}
			for i, rep := range out {
				r.env.Send(entry.Batch.Reqs[i].Client, rep)
			}
		})
}

// groupReply builds one client's t ≥ 2 answer (Figure 2a): the primary
// sends the reply, a follower its digest.
func (r *Replica) groupReply(primary bool, client smr.NodeID, sn smr.SeqNum, v smr.View, ts uint64, rep []byte) smr.Message {
	if primary {
		m := &MsgReply{From: r.id, SN: sn, View: v, TS: ts, Rep: rep}
		m.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(client), m.MACPayload())
		return m
	}
	m := &MsgReplyDigest{From: r.id, SN: sn, View: v, TS: ts, RepDigest: crypto.Hash(rep)}
	m.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(client), m.MACPayload())
	return m
}

// applyBatch executes the batch's requests in order with at-most-once
// semantics, returning per-request timestamps and replies. Requests
// whose timestamp was already executed return the cached reply
// (deterministic across replicas).
func (r *Replica) applyBatch(b *Batch, sn smr.SeqNum, v smr.View) (tss []uint64, reps [][]byte) {
	r.vcConsec = 0 // fresh execution: the current view is productive
	tss = make([]uint64, len(b.Reqs))
	reps = make([][]byte, len(b.Reqs))
	for i := range b.Reqs {
		req := &b.Reqs[i]
		tss[i] = req.TS
		m := r.lastExec[req.Client]
		if m.executed(req.TS) {
			if c, ok := r.replies.get(req.Client, req.TS); ok {
				reps[i] = c.Rep
			}
			// A marker may still exist if the request was re-queued and
			// re-batched around its own execution (retransmission racing
			// a commit); the executed window owns dedupe now, so clear
			// it here too or it leaks forever.
			delete(r.queued, watchKey{Client: req.Client, TS: req.TS})
			continue
		}
		rep := r.app.Execute(req.Op)
		r.lastExec[req.Client] = m.record(req.TS)
		r.replies.put(req.Client, cachedReply{TS: req.TS, SN: sn, View: v, Rep: rep})
		reps[i] = rep
		// Executed: the queued marker has done its job (the executed
		// window takes over dedupe from here).
		delete(r.queued, watchKey{Client: req.Client, TS: req.TS})
		r.onExecutedWatched(req.Client, req.TS, sn, v, rep)
	}
	return tss, reps
}

// sendReply re-sends a cached reply to a duplicate request. For t = 1
// it attaches the follower commit from the commit log; the reply's
// (SN, View) must come from that entry — after a view change the entry
// is re-committed in a newer view than the one cached at execution.
func (r *Replica) sendReply(client smr.NodeID, req *Request, c cachedReply) {
	rep := MsgReply{From: r.id, SN: c.SN, View: c.View, TS: c.TS, Rep: c.Rep}
	if r.t == 1 {
		s := r.slot(c.SN)
		if s == nil || s.commit == nil {
			return // truncated by a checkpoint; client will retransmit
		}
		entry := s.commit
		m1 := entry.Commits[0]
		rep.SN, rep.View = entry.SN(), entry.View()
		rep.FollowerCommit = &m1
		tss, digs := r.collectReplyDigests(&entry.Batch)
		leaves := ReplyLeaves(tss, digs)
		idx := -1
		for i := range entry.Batch.Reqs {
			if entry.Batch.Reqs[i].Client == client && tss[i] == c.TS {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		rep.Proof = crypto.BuildMerkleProof(leaves, idx)
	}
	rep.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(client), rep.MACPayload())
	r.env.Send(client, &rep)
}

// resendCommittedReplies pushes replies for an entry that was
// re-committed in a new view (its requests executed earlier): clients
// blocked since before the view change unblock without waiting for a
// retransmission round trip.
func (r *Replica) resendCommittedReplies(entry *CommitEntry) {
	for i := range entry.Batch.Reqs {
		req := &entry.Batch.Reqs[i]
		c, ok := r.replies.get(req.Client, req.TS)
		if !ok {
			continue
		}
		if r.t == 1 {
			if r.isPrimary() {
				c.SN = entry.SN()
				r.sendReply(req.Client, req, c)
			}
			continue
		}
		r.env.Send(req.Client, r.groupReply(r.isPrimary(), req.Client, entry.SN(), entry.View(), c.TS, c.Rep))
	}
}

// notifyCommit reports each request of a committed entry to the
// observer.
func (r *Replica) notifyCommit(e *CommitEntry) {
	if r.cfg.Observer == nil {
		return
	}
	for i := range e.Batch.Reqs {
		req := &e.Batch.Reqs[i]
		r.cfg.Observer(smr.Committed{
			Replica: r.id, View: e.View(), Seq: e.SN(),
			Digest: req.Digest(), Client: req.Client, ClientTS: req.TS,
			First: i == 0,
		})
	}
}

// ---------------------------------------------------------------------------
// Entry verification
// ---------------------------------------------------------------------------

// checkPrepareEntryShape checks everything about a primary's entry
// that does not require public-key operations: order kind, sender role
// and digest binding. The signatures — independent, so they scatter
// across the verification pool — are checked by admitPrepareEntry's
// off-loop half.
func (r *Replica) checkPrepareEntryShape(e *PrepareEntry) bool {
	if e.Primary.Kind != r.primaryKind() {
		return false
	}
	if e.Primary.From != Primary(r.n, r.t, e.Primary.View) {
		return false
	}
	return e.Batch.Digest() == e.Primary.BatchD
}

// verifyCommitEntry validates a full commit certificate: the primary's
// order plus t follower commits of the entry's view, all binding the
// same batch digest. Used on lazy replication and view-change paths.
func (r *Replica) verifyCommitEntry(e *CommitEntry) bool {
	v := e.Primary.View
	if e.Primary.Kind != r.primaryKind() || e.Primary.From != Primary(r.n, r.t, v) {
		return false
	}
	if e.Batch.Digest() != e.Primary.BatchD {
		return false
	}
	if len(e.Commits) != r.t {
		return false
	}
	seen := make(map[smr.NodeID]bool, r.t)
	for i := range e.Commits {
		o := &e.Commits[i]
		if o.Kind != KindCommit || o.View != v || o.SN != e.Primary.SN || o.BatchD != e.Primary.BatchD {
			return false
		}
		if followerIndex(r.n, r.t, v, o.From) < 0 || seen[o.From] {
			return false
		}
		seen[o.From] = true
	}
	// Structure is sound. The same entries recur across consecutive
	// view changes (every view-change message re-hauls the unstable
	// tail), so memoize the signature verdict by a digest over the
	// authenticated content: the t+1 signatures cover every field the
	// structural checks above did not already pin down, so two entries
	// with equal keys carry identical, equally-valid evidence.
	key := commitEntryKey(e)
	if verdict, ok := r.ceCache[key]; ok {
		return verdict
	}
	b := newSigBatch(r.t + 1)
	b.add(crypto.NodeID(e.Primary.From), e.Primary.Sig, e.Primary.appendSigPayload)
	for i := range e.Commits {
		o := &e.Commits[i]
		b.add(crypto.NodeID(o.From), o.Sig, o.appendSigPayload)
	}
	ok := b.verifyAll(r.verifyPool, r.suite)
	if len(r.ceCache) >= ceCacheMax {
		r.ceCache = make(map[crypto.Digest]bool, ceCacheMax/4)
	}
	r.ceCache[key] = ok
	return ok
}

// ceCacheMax bounds the commit-entry verification cache.
const ceCacheMax = 1 << 13

// commitEntryKey digests a commit entry's authenticated content for
// the verification cache.
func commitEntryKey(e *CommitEntry) crypto.Digest {
	w := wire.Get()
	w.U64(uint64(e.Primary.SN)).U64(uint64(e.Primary.View)).I64(int64(e.Primary.From))
	w.Bytes(e.Primary.BatchD[:]).Bytes(e.Primary.RepRoot[:]).Bytes(e.Primary.Sig)
	for i := range e.Commits {
		o := &e.Commits[i]
		w.I64(int64(o.From)).Bytes(o.RepRoot[:]).Bytes(o.Sig)
	}
	d := crypto.Hash(w.Done())
	wire.Put(w)
	return d
}

// ---------------------------------------------------------------------------
// Retransmission handling (Algorithm 4)
// ---------------------------------------------------------------------------

// onResend handles a client's retransmission broadcast.
func (r *Replica) onResend(from smr.NodeID, req Request) {
	if !r.isActive() || r.status != statusNormal {
		return
	}
	if !r.verifyRequest(&req) || req.Client != from {
		return
	}
	key := watchKey{Client: req.Client, TS: req.TS}
	w, exists := r.watches[key]
	if !exists {
		w = &watchState{key: key, sigs: make(map[smr.NodeID]ReplySig), view: r.view, ex: r.ex}
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watches[key] = w
		r.watchTimers[w.timer] = key
	}
	w.started = true // a real client retransmission arms the suspicion timer
	// Forward to the primary (it may never have seen the request).
	if !r.isPrimary() {
		r.env.Send(r.primary(), &MsgReplicate{Req: req})
	} else {
		r.onRequest(from, req, true)
	}
	// If we already executed it, contribute our signed reply now.
	if c, ok := r.replies.get(req.Client, req.TS); ok {
		r.broadcastReplySign(req.Client, req.TS, c)
	}
}

// onExecutedWatched fires when a watched request executes.
func (r *Replica) onExecutedWatched(client smr.NodeID, ts uint64, sn smr.SeqNum, v smr.View, rep []byte) {
	key := watchKey{Client: client, TS: ts}
	if _, ok := r.watches[key]; !ok {
		return
	}
	r.broadcastReplySign(client, ts, cachedReply{TS: ts, SN: sn, View: v, Rep: rep})
}

func (r *Replica) broadcastReplySign(client smr.NodeID, ts uint64, c cachedReply) {
	key := watchKey{Client: client, TS: ts}
	if w, ok := r.watches[key]; ok {
		if _, mine := w.sigs[r.id]; mine {
			return // already contributed
		}
	}
	if r.replySigning[key] {
		return // our signature is already being produced off-loop
	}
	r.replySigning[key] = true
	rs := &ReplySig{From: r.id, SN: c.SN, View: c.View, TS: ts, Client: client, RepDigest: crypto.Hash(c.Rep)}
	r.goCrypto("sign-replysign",
		func() { rs.Sig = r.suite.Sign(crypto.NodeID(r.id), rs.SigPayload()) },
		func() {
			delete(r.replySigning, key)
			r.sendActives(&MsgReplySign{R: *rs})
			r.applyReplySign(*rs) // our own signature needs no verification
		})
}

// onReplySign receives a peer's signed reply record: the signature
// verifies off-loop, and the record is applied when the check lands.
// In-flight checks are deduped per (request, signer) and capped in
// total — this path is driven by unsolicited peer messages, so it must
// not let a flood pin one verification per message in flight.
func (r *Replica) onReplySign(from smr.NodeID, m *MsgReplySign) {
	rs := m.R
	if rs.From != from {
		return
	}
	if w, ok := r.watches[watchKey{Client: rs.Client, TS: rs.TS}]; ok {
		if _, dup := w.sigs[rs.From]; dup {
			return // already recorded; skip the verification
		}
	}
	id := replySigID{Client: rs.Client, TS: rs.TS, From: rs.From}
	if r.replySignVerifying[id] || len(r.replySignVerifying) >= maxReplySignVerifying {
		return // a copy is in flight, or the path is saturated: shed
	}
	r.replySignVerifying[id] = true
	var valid bool
	r.goCrypto("verify-replysign",
		func() { valid = r.suite.Verify(crypto.NodeID(rs.From), rs.SigPayload(), rs.Sig) },
		func() {
			delete(r.replySignVerifying, id)
			if valid {
				r.applyReplySign(rs)
			}
		})
}

// applyReplySign collects authenticated signed replies; with t+1
// matching ones the bundle goes to the client. Receiving a signed
// reply without a local watch opens a passive watch (it collects
// signatures but its expiry never suspects the view), so signature
// quorums assemble even when the client's retransmission only reached
// part of the group.
func (r *Replica) applyReplySign(rs ReplySig) {
	key := watchKey{Client: rs.Client, TS: rs.TS}
	w, ok := r.watches[key]
	if !ok {
		w = &watchState{key: key, sigs: make(map[smr.NodeID]ReplySig), view: r.view, ex: r.ex}
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watches[key] = w
		r.watchTimers[w.timer] = key
	}
	if _, dup := w.sigs[rs.From]; dup {
		return
	}
	w.sigs[rs.From] = rs
	// Contribute our own signature if we executed the request and have
	// not spoken up yet. Our signature lands asynchronously, so fall
	// through and check the quorum with what is already here — the
	// t+1th record, whoever supplies it, finishes the watch.
	if rs.From != r.id {
		if _, mine := w.sigs[r.id]; !mine {
			if c, okRep := r.replies.get(rs.Client, rs.TS); okRep {
				r.broadcastReplySign(rs.Client, rs.TS, c)
			}
		}
	}
	r.tryFinishWatch(w, rs.RepDigest)
}

// tryFinishWatch sends the signed-reply bundle once t+1 distinct
// matching signatures are collected and we hold the reply payload.
func (r *Replica) tryFinishWatch(w *watchState, digest crypto.Digest) {
	if r.watches[w.key] != w {
		return // the watch already finished (or was cleared)
	}
	matching := make([]ReplySig, 0, r.t+1)
	for _, s := range w.sigs {
		if s.RepDigest == digest {
			matching = append(matching, s)
		}
	}
	if len(matching) < r.t+1 {
		return
	}
	sortReplySigs(matching)
	c, okRep := r.replies.get(w.key.Client, w.key.TS)
	if !okRep || crypto.Hash(c.Rep) != digest {
		return // we lack the payload; another active will answer
	}
	r.env.Send(w.key.Client, &MsgSignedReply{Rep: c.Rep, Replies: matching[:r.t+1]})
	r.clearWatch(w.key)
}

func sortReplySigs(s []ReplySig) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].From < s[j-1].From; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (r *Replica) clearWatch(key watchKey) {
	if w, ok := r.watches[key]; ok {
		r.env.CancelTimer(w.timer)
		delete(r.watchTimers, w.timer)
		delete(r.watches, key)
	}
}

// onWatchExpired: the request made no progress in time — suspect the
// view and tell the client (Algorithm 4 lines 8–10). Passive watches
// (opened only to aggregate signatures) expire silently, and a watch
// armed under an older view re-arms rather than condemning a view that
// has not had a full timeout to serve the request.
func (r *Replica) onWatchExpired(key watchKey) {
	w, ok := r.watches[key]
	if !ok {
		return
	}
	if !w.started {
		delete(r.watches, key)
		return
	}
	if w.view < r.view || r.status == statusViewChange {
		w.view = r.view
		w.ex = r.ex
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watchTimers[w.timer] = key
		return
	}
	if r.ex > w.ex && w.graces < maxWatchGraces {
		// The group is executing — the request is queued behind a
		// backlog, not lost. Grant another timeout instead of tearing
		// the view down (see watchState.ex).
		w.ex = r.ex
		w.graces++
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watchTimers[w.timer] = key
		return
	}
	delete(r.watches, key)
	sus := r.makeSuspect(r.view)
	r.env.Send(key.Client, sus)
	r.suspect(r.view)
}

// makeSuspect builds our signed suspect message for view v.
func (r *Replica) makeSuspect(v smr.View) *MsgSuspect {
	m := &MsgSuspect{View: v, From: r.id}
	m.Sig = r.suite.Sign(crypto.NodeID(r.id), m.SigPayload())
	return m
}

// String describes the replica for debugging.
func (r *Replica) String() string {
	return fmt.Sprintf("xpaxos[%d view=%d status=%d sn=%d ex=%d]", r.id, r.view, r.status, r.sn, r.ex)
}

// equalBatches reports whether two batches contain identical requests.
func equalBatches(a, b *Batch) bool {
	if len(a.Reqs) != len(b.Reqs) {
		return false
	}
	for i := range a.Reqs {
		x, y := &a.Reqs[i], &b.Reqs[i]
		if x.TS != y.TS || x.Client != y.Client || !bytes.Equal(x.Op, y.Op) {
			return false
		}
	}
	return true
}
