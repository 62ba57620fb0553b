package xpaxos

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wal"
)

// status is the replica's operating mode.
type status int

const (
	statusNormal status = iota
	statusViewChange
)

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
	// fwdPending accumulates client requests a follower has yet to
	// verify before forwarding; one batch verifies off-loop at a time
	// (fwdInFlight), and arrivals meanwhile form the next batch.
	fwdPending  []Request
	fwdInFlight bool

	// sessions holds everything kept per client and per request
	// (sessions.go); slots open through request alone. watchTimers finds
	// the slot whose watch timer fired, and replySignVerifying counts
	// reply-sign checks in flight.
	sessions           map[smr.NodeID]*session
	watchTimers        map[smr.TimerID]*request
	replySignVerifying int

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

	// views holds everything kept per view (viewlog.go): view change
	// and fault detection. All access goes through admit and collecting.
	views viewLog
	// vcConsec counts view changes attempted — a collection started
	// with a full timer_vc — since the last fresh batch execution. Each
	// consecutive unproductive attempt doubles timer_vc (capped), so a
	// run of bad luck with the group rotation — or a backlog too deep to
	// clear in one timeout — converges instead of churning through views
	// at the minimum period forever. Views skipped because a member is
	// known down (suspectDoomedView) are not attempts.
	vcConsec int

	// Fault detection (fd.go). preView is the last view installed.
	preView   smr.View
	fset      map[smr.NodeID]bool
	convicted map[faultID]bool

	// downPeers is the level view of the runtime's edge-triggered
	// PeerDown/PeerUp health events: peers currently believed dead or
	// partitioned from us. Consulted when a view is entered, so a group
	// containing a known-dead member is suspected immediately.
	downPeers map[smr.NodeID]bool
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
		cfg:         cfg,
		id:          id,
		n:           cfg.N,
		t:           cfg.T,
		suite:       cfg.Suite,
		app:         app,
		log:         seqLog{ahead: smr.SeqNum(logAheadWindows * cfg.PipelineWindow)},
		sessions:    make(map[smr.NodeID]*session),
		watchTimers: make(map[smr.TimerID]*request),
		ceCache:     make(map[crypto.Digest]bool),
		views:       make(viewLog),
		fset:        make(map[smr.NodeID]bool),
		convicted:   make(map[faultID]bool),
		downPeers:   make(map[smr.NodeID]bool),
	}
	r.intake.capTotal = cfg.IntakeQueueCap
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
	if r.collecting() != nil && r.vcConsec > 0 {
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
		if r.batchTimerSet && e.ID == r.batchTimer {
			r.batchTimerSet = false
			r.flushBatches(true)
		}
	case "watch":
		if q, ok := r.watchTimers[e.ID]; ok {
			delete(r.watchTimers, e.ID)
			r.onWatchExpired(q)
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
