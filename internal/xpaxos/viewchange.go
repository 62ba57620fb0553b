package xpaxos

import (
	"maps"
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// vcKey identifies a distinct view-change message in the union set: a
// non-crash-faulty sender may distribute several versions, and fault
// detection wants to see all of them.
type vcKey struct {
	From smr.NodeID
	D    crypto.Digest
}

// selEntry is one selected request batch for the new view.
type selEntry struct {
	SN    smr.SeqNum
	Batch Batch
	// FromView is the view of the log entry that won the selection.
	FromView smr.View
	// FromPrepare marks entries selected from a prepare log (FD mode).
	FromPrepare bool
}

// vcState is the per-view-change scratchpad of an active replica of
// the new view.
type vcState struct {
	target smr.View

	vcSet      map[smr.NodeID]*MsgViewChange
	netTimer   smr.TimerID
	netExpired bool
	vcTimer    smr.TimerID

	finalSent bool
	finals    map[smr.NodeID]*MsgVCFinal
	union     map[vcKey]*MsgViewChange

	// FD confirmation round.
	confirmSent bool
	myConfirmD  crypto.Digest
	confirms    map[smr.NodeID]*MsgVCConfirm
	fdDone      bool

	// Selection output.
	selDone     bool
	selection   map[smr.SeqNum]*selEntry
	selMax      smr.SeqNum
	selChk      CheckpointProof
	selSnapshot []byte

	pendingNV *MsgNewView
}

// suspect initiates (or joins) a view change away from view v
// (Section 4.3.2). Only active replicas of v may initiate; passive
// replicas and later views join when they receive the suspect message.
func (r *Replica) suspect(v smr.View) {
	if v < r.view {
		return
	}
	if !InGroup(r.n, r.t, v, r.id) {
		return
	}
	key := suspectKey{View: v, From: r.id}
	if r.seenSuspects[key] {
		return
	}
	r.seenSuspects[key] = true
	m := r.makeSuspect(v)
	r.sendAllReplicas(m)
	r.enterView(v + 1)
}

// onSuspect handles ⟨suspect, i, sk⟩σ — possibly relayed by a client.
func (r *Replica) onSuspect(from smr.NodeID, m *MsgSuspect) {
	if !InGroup(r.n, r.t, m.View, m.From) {
		return // only active replicas of view i may suspect view i
	}
	if !r.suite.Verify(crypto.NodeID(m.From), m.SigPayload(), m.Sig) {
		return
	}
	key := suspectKey{View: m.View, From: m.From}
	if r.seenSuspects[key] {
		return
	}
	r.seenSuspects[key] = true
	r.sendAllReplicas(m) // gossip so every replica converges on the view change
	if m.View >= r.view {
		r.enterView(m.View + 1)
	}
}

// enterView moves the replica into the view change for view nv
// (Algorithm 3 lines 6–10).
func (r *Replica) enterView(nv smr.View) {
	if nv <= r.view {
		return
	}
	r.view = nv
	r.group = SyncGroup(r.n, r.t, nv)
	r.status = statusViewChange
	if r.vcState != nil {
		r.env.CancelTimer(r.vcState.netTimer)
		r.env.CancelTimer(r.vcState.vcTimer)
		r.vcState = nil
	}
	if r.suspectDoomedView() {
		// A member of nv's group is known down: nv cannot install, and as
		// one of its active replicas we have said so and entered the next
		// view, which reset everything below. No view-change message, no
		// timer and no back-off step are spent on nv.
		return
	}

	// Abandon per-view volatile state: buffered entries, commit votes
	// and in-flight verification marks in the log, and what the async
	// crypto pipeline has in flight (below). The queued markers are
	// rebuilt from the unbatched backlog only: requests that were batched
	// into prepares of the dead view may not survive the view change, and
	// a stale marker would make the primary drop their retransmissions
	// forever.
	r.log.dropVolatile()
	r.queued = make(map[watchKey]crypto.Digest, r.intake.size())
	r.intake.each(func(req *Request) {
		r.queued[watchKey{Client: req.Client, TS: req.TS}] = crypto.Hash(req.Sig)
	})
	if r.batchTimerSet {
		r.env.CancelTimer(r.batchTimer)
		r.batchTimerSet = false
	}
	// Abandon the async crypto pipeline's in-flight work: completions
	// submitted under the dead view are discarded by goCrypto's epoch
	// guard, so the bookkeeping they would have released is reset here.
	// Intake batches mid-verification are dropped like requests batched
	// into dead-view prepares — their queued markers were rebuilt away
	// above, so retransmissions are judged fresh.
	r.intakeQ = nil
	r.replySigning = make(map[watchKey]bool)
	r.replySignVerifying = make(map[replySigID]bool)
	r.fwdPending = nil
	r.fwdInFlight = false

	vc := r.buildViewChange(nv)
	for _, id := range SyncGroup(r.n, r.t, nv) {
		if id != r.id {
			r.env.Send(id, vc)
		}
	}

	if !r.isActive() {
		// Passive replicas of nv have nothing further to do in the view
		// change; they resume serving lazy replication.
		r.status = statusNormal
		return
	}

	st := &vcState{
		target: nv,
		vcSet:  make(map[smr.NodeID]*MsgViewChange),
		finals: make(map[smr.NodeID]*MsgVCFinal),
		union:  make(map[vcKey]*MsgViewChange),
	}
	st.netTimer = r.env.SetTimer(2*r.cfg.Delta, "vc-net")
	r.vcConsec++
	boff := r.vcConsec - 1
	if boff > 4 {
		boff = 4
	}
	st.vcTimer = r.env.SetTimer(r.cfg.ViewChangeTimeout<<boff, "vc")
	r.vcState = st

	// Process our own view-change message and any buffered ones.
	r.acceptViewChange(r.id, vc)
	if buf, ok := r.futureVC[nv]; ok {
		delete(r.futureVC, nv)
		for from, m := range buf {
			r.acceptViewChange(from, m)
		}
	}
	if buf, ok := r.futureFinal[nv]; ok {
		delete(r.futureFinal, nv)
		for from, m := range buf {
			r.onVCFinal(from, m)
		}
	}
	if m, ok := r.futureNV[nv]; ok {
		delete(r.futureNV, nv)
		r.onNewView(m.From, m)
	}
	r.checkVCSetComplete()
}

// buildViewChange assembles our ⟨view-change⟩ message for view nv.
func (r *Replica) buildViewChange(nv smr.View) *MsgViewChange {
	vc := &MsgViewChange{
		NewView:    nv,
		From:       r.id,
		Checkpoint: r.chk,
		Snapshot:   r.chkSnapshot,
		CommitLog:  r.log.commits(),
	}
	if r.cfg.EnableFD {
		vc.PrepareLog = r.log.prepares()
		vc.PreView = r.preView
		vc.FinalProof = r.finalProofs[r.preView]
	}
	vc.Sig = r.suite.Sign(crypto.NodeID(r.id), vc.SigPayload())
	return vc
}

// onViewChange routes an incoming view-change message.
func (r *Replica) onViewChange(from smr.NodeID, m *MsgViewChange) {
	if m.From != from && from != r.id {
		return
	}
	if !r.suite.Verify(crypto.NodeID(m.From), m.SigPayload(), m.Sig) {
		return
	}
	switch {
	case m.NewView == r.view && r.vcState != nil:
		r.acceptViewChange(from, m)
		r.checkVCSetComplete()
	case m.NewView > r.view:
		buf, ok := r.futureVC[m.NewView]
		if !ok {
			buf = make(map[smr.NodeID]*MsgViewChange)
			r.futureVC[m.NewView] = buf
		}
		buf[m.From] = m
		// t+1 replicas moving to nv imply at least one correct replica
		// did; join them.
		if len(buf) >= r.t+1 {
			r.enterView(m.NewView)
		}
	}
}

func (r *Replica) acceptViewChange(from smr.NodeID, m *MsgViewChange) {
	st := r.vcState
	if st == nil || m.NewView != st.target {
		return
	}
	if _, dup := st.vcSet[m.From]; dup {
		return
	}
	st.vcSet[m.From] = m
	st.union[vcKey{From: m.From, D: m.contentDigest()}] = m
}

// checkVCSetComplete sends vc-final once the collection condition of
// Algorithm 3 line 13 holds: all n messages, or the 2Δ timer expired
// with at least n−t messages.
func (r *Replica) checkVCSetComplete() {
	st := r.vcState
	if st == nil || st.finalSent {
		return
	}
	if len(st.vcSet) == r.n || (st.netExpired && len(st.vcSet) >= r.n-r.t) {
		st.finalSent = true
		vcs := make([]*MsgViewChange, 0, len(st.vcSet))
		for _, id := range slices.Sorted(maps.Keys(st.vcSet)) {
			vcs = append(vcs, st.vcSet[id])
		}
		f := &MsgVCFinal{NewView: st.target, From: r.id, VCSet: vcs}
		f.Sig = r.suite.Sign(crypto.NodeID(r.id), f.SigPayload())
		r.sendActives(f)
		r.onVCFinal(r.id, f)
	}
}

func (r *Replica) onNetTimer(id smr.TimerID) {
	st := r.vcState
	if st == nil || id != st.netTimer {
		return
	}
	st.netExpired = true
	r.checkVCSetComplete()
}

func (r *Replica) onVCTimer(id smr.TimerID) {
	st := r.vcState
	if st == nil || id != st.vcTimer {
		return
	}
	// View change did not complete in time (Section 4.3.2 (iii)).
	r.suspect(r.view)
}

// onVCFinal collects ⟨vc-final⟩ from all active replicas of the new
// view (Algorithm 3 line 16).
func (r *Replica) onVCFinal(from smr.NodeID, m *MsgVCFinal) {
	if m.From != from && from != r.id {
		return
	}
	if m.NewView > r.view {
		if !InGroup(r.n, r.t, m.NewView, m.From) {
			return
		}
		if !r.suite.Verify(crypto.NodeID(m.From), m.SigPayload(), m.Sig) {
			return
		}
		buf, ok := r.futureFinal[m.NewView]
		if !ok {
			buf = make(map[smr.NodeID]*MsgVCFinal)
			r.futureFinal[m.NewView] = buf
		}
		buf[m.From] = m
		if len(buf) >= r.t+1 {
			r.enterView(m.NewView)
		}
		return
	}
	st := r.vcState
	if st == nil || m.NewView != st.target {
		return
	}
	if !InGroup(r.n, r.t, st.target, m.From) {
		return
	}
	if _, dup := st.finals[m.From]; dup {
		return
	}
	if from != r.id && !r.suite.Verify(crypto.NodeID(m.From), m.SigPayload(), m.Sig) {
		return
	}
	st.finals[m.From] = m
	// Extend the union with the piggybacked view-change messages
	// (verifying relayed signatures).
	for _, vc := range m.VCSet {
		key := vcKey{From: vc.From, D: vc.contentDigest()}
		if _, ok := st.union[key]; ok {
			continue
		}
		if !r.suite.Verify(crypto.NodeID(vc.From), vc.SigPayload(), vc.Sig) {
			continue
		}
		st.union[key] = vc
	}
	if len(st.finals) == r.t+1 {
		r.completeVCFinals()
	}
}

// completeVCFinals runs once vc-final messages from all t+1 active
// replicas are in. With FD the confirm round interposes; otherwise we
// select immediately.
func (r *Replica) completeVCFinals() {
	if r.cfg.EnableFD {
		r.startConfirmRound()
		return
	}
	r.computeSelection()
}

// computeSelection implements Algorithm 3 lines 18–24 (and, with FD,
// Algorithm 5 lines 12–21): per sequence number take the commit log
// with the highest view; FD also considers prepare logs.
func (r *Replica) computeSelection() {
	st := r.vcState
	if st == nil || st.selDone {
		return
	}
	st.selDone = true

	// 1. Adopt the highest valid checkpoint offered.
	bestChk := r.chk
	bestSnap := r.chkSnapshot
	for _, vc := range st.union {
		if r.fset[vc.From] {
			continue
		}
		if vc.Checkpoint.SN > bestChk.SN && r.verifyCheckpointProof(&vc.Checkpoint) &&
			crypto.Hash(vc.Snapshot) == vc.Checkpoint.StateD {
			bestChk = vc.Checkpoint
			bestSnap = vc.Snapshot
		}
	}
	st.selChk = bestChk
	st.selSnapshot = bestSnap

	// 2. Select, per sequence number above the checkpoint, the commit
	// entry with the highest view (and with FD, prepare entries too).
	type cand struct {
		batch       Batch
		view        smr.View
		fromPrepare bool
	}
	sel := make(map[smr.SeqNum]*cand)
	maxSN := bestChk.SN
	consider := func(sn smr.SeqNum, v smr.View, b Batch, fromPrepare bool) {
		if sn <= bestChk.SN {
			return
		}
		if sn > maxSN {
			maxSN = sn
		}
		cur, ok := sel[sn]
		if !ok || v > cur.view || (v == cur.view && cur.fromPrepare && !fromPrepare) {
			sel[sn] = &cand{batch: b, view: v, fromPrepare: fromPrepare}
		}
	}
	for _, vc := range st.union {
		if r.fset[vc.From] {
			continue
		}
		for i := range vc.CommitLog {
			e := &vc.CommitLog[i]
			if r.verifyCommitEntry(e) {
				consider(e.SN(), e.View(), e.Batch, false)
			}
		}
	}
	if r.cfg.EnableFD {
		// A prepare entry needs one signature, the old primary's, so a
		// faulty ex-primary can name any sequence number, and every hole
		// below the highest one selected is filled, signed and executed
		// by the whole new group. A correct replica holds no entry
		// further than the log window beyond what it has committed or
		// checkpointed, and its commit log and checkpoint are in the
		// union too: prepare entries beyond that reach are ignored.
		reach := maxSN + r.log.ahead
		for _, vc := range st.union {
			if r.fset[vc.From] {
				continue
			}
			for i := range vc.PrepareLog {
				e := &vc.PrepareLog[i]
				if e.SN() <= reach && r.verifyPrepareEntryForVC(e) {
					consider(e.SN(), e.View(), e.Batch, true)
				}
			}
		}
	}
	st.selection = make(map[smr.SeqNum]*selEntry, len(sel))
	for sn := bestChk.SN + 1; sn <= maxSN; sn++ {
		c, ok := sel[sn]
		if !ok {
			// Hole: no benign replica committed or prepared here — fill
			// with a no-op batch so sequence numbers stay contiguous.
			st.selection[sn] = &selEntry{SN: sn, Batch: Batch{}}
			continue
		}
		st.selection[sn] = &selEntry{SN: sn, Batch: c.batch, FromView: c.view, FromPrepare: c.fromPrepare}
	}
	st.selMax = maxSN

	// 3. The new primary re-prepares the selection (new-view).
	if r.isPrimary() {
		r.sendNewView()
	} else if st.pendingNV != nil {
		nv := st.pendingNV
		st.pendingNV = nil
		r.processNewView(nv)
	}
}

// verifyPrepareEntryForVC validates a prepare entry carried in a
// view-change message (any view, not just the current one).
func (r *Replica) verifyPrepareEntryForVC(e *PrepareEntry) bool {
	return r.checkPrepareEntryShape(e) && verifyOrder(r.suite, &e.Primary)
}

// sendNewView is the new primary's Algorithm 3 lines 20–24.
func (r *Replica) sendNewView() {
	st := r.vcState
	if st == nil || !st.selDone {
		return
	}
	kind := r.primaryKind()
	prepares := make([]PrepareEntry, 0, len(st.selection))
	for sn := st.selChk.SN + 1; sn <= st.selMax; sn++ {
		e := st.selection[sn]
		d := e.Batch.Digest()
		o := signOrder(r.suite, kind, d, sn, st.target, r.id, crypto.Digest{})
		prepares = append(prepares, PrepareEntry{Batch: e.Batch, Primary: o})
	}
	nv := &MsgNewView{NewView: st.target, From: r.id, Prepares: prepares}
	nv.Sig = r.suite.Sign(crypto.NodeID(r.id), nv.SigPayload())
	r.sendActives(nv)
	r.processNewView(nv)
}

// onNewView routes ⟨new-view⟩ (Algorithm 3 lines 25–33).
func (r *Replica) onNewView(from smr.NodeID, m *MsgNewView) {
	if m.From != Primary(r.n, r.t, m.NewView) {
		return
	}
	if m.From != from && from != r.id {
		return
	}
	if !r.suite.Verify(crypto.NodeID(m.From), m.SigPayload(), m.Sig) {
		return
	}
	if m.NewView > r.view {
		r.futureNV[m.NewView] = m
		return
	}
	st := r.vcState
	if st == nil || m.NewView != st.target {
		return
	}
	if !st.selDone {
		st.pendingNV = m
		return
	}
	r.processNewView(m)
}

// processNewView validates the primary's prepare log against our own
// selection and, on success, installs the new view.
func (r *Replica) processNewView(m *MsgNewView) {
	st := r.vcState
	if st == nil || !st.selDone || r.status != statusViewChange {
		return
	}
	// The prepare log must exactly match our selection (same range,
	// same batches) — otherwise the new primary is lying; suspect it.
	want := int(st.selMax - st.selChk.SN)
	if want < 0 {
		want = 0
	}
	if len(m.Prepares) != want {
		r.suspect(r.view)
		return
	}
	kind := r.primaryKind()
	for i := range m.Prepares {
		e := &m.Prepares[i]
		sn := st.selChk.SN + 1 + smr.SeqNum(i)
		sel := st.selection[sn]
		if sel == nil || e.SN() != sn || e.Primary.View != st.target ||
			e.Primary.Kind != kind || e.Primary.From != m.From {
			r.suspect(r.view)
			return
		}
		if e.Primary.BatchD != sel.Batch.Digest() || !equalBatches(&e.Batch, &sel.Batch) {
			r.suspect(r.view)
			return
		}
		if !verifyOrder(r.suite, &e.Primary) {
			r.suspect(r.view)
			return
		}
	}

	// Install: adopt checkpoint if ahead of us, execute the selection,
	// rebuild the prepare log in the new view.
	if st.selChk.SN > r.chk.SN {
		r.adoptCheckpoint(st.selChk, st.selSnapshot)
	}
	for sn := r.ex + 1; sn <= st.selMax; sn++ {
		if sel, ok := st.selection[sn]; ok {
			r.applyBatch(&sel.Batch, sn, st.target)
			r.ex = sn
		}
	}
	for i := range m.Prepares {
		e := m.Prepares[i]
		if s := r.slot(e.SN()); s != nil {
			s.prepare = &e
		}
	}
	// Every active replica resumes from the selection's end — the group
	// must agree on the next sequence number (Algorithm 3 line 29).
	r.sn = st.selMax
	r.preView = st.target

	// Leave view-change mode.
	r.env.CancelTimer(st.netTimer)
	r.env.CancelTimer(st.vcTimer)
	r.vcState = nil
	r.status = statusNormal
	if r.cfg.OnViewChange != nil {
		r.cfg.OnViewChange(r.view, r.env.Now())
	}

	// Re-commit the selection in the new view: followers sign commits
	// for every re-prepared entry (the common-case message flow).
	if !r.isPrimary() {
		if r.t == 1 {
			for i := range m.Prepares {
				e := &m.Prepares[i]
				sn := e.SN()
				tss, reps := r.collectReplyDigests(&e.Batch)
				root := ReplyRoot(tss, reps)
				m1 := signOrder(r.suite, KindCommit, e.Primary.BatchD, sn, r.view, r.id, root)
				entry := &CommitEntry{Batch: e.Batch, Primary: e.Primary, Commits: []Order{m1}}
				if s := r.slot(sn); s != nil {
					s.commit = entry
				}
				r.logCommitEntry(entry)
				r.notifyCommit(entry)
				r.env.Send(r.primary(), &MsgCommit{Order: m1})
				r.lazyReplicate(entry)
			}
		} else {
			for i := range m.Prepares {
				e := &m.Prepares[i]
				c := signOrder(r.suite, KindCommit, e.Primary.BatchD, e.SN(), r.view, r.id, crypto.Digest{})
				if s := r.slot(e.SN()); s != nil {
					r.addCommitVote(s, c)
				}
				r.sendActives(&MsgCommit{Order: c})
				r.tryAssemble(e.SN())
			}
		}
	}
	// The new primary resumes batching client requests, and tells the
	// clients it knows where to send them.
	if r.isPrimary() {
		r.flushBatches(true)
		r.announceView()
	}
}

// announceView sends ⟨view-installed⟩ to every client this replica has
// executed a request for. Nothing else tells a client that a view
// installed: its requests to the dead primary are lost, and those it
// re-sent on its own suspicion may have reached us before we were
// primary. Its request timer remains the fallback.
func (r *Replica) announceView() {
	// Send order must not depend on map order (netsim determinism).
	for _, c := range slices.Sorted(maps.Keys(r.lastExec)) {
		m := &MsgViewInstalled{View: r.view, From: r.id}
		m.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(c), m.MACPayload())
		r.env.Send(c, m)
	}
}

// collectReplyDigests recomputes the reply root inputs for a batch
// from the reply cache (used when re-committing selected entries whose
// execution already happened).
func (r *Replica) collectReplyDigests(b *Batch) ([]uint64, []crypto.Digest) {
	tss := make([]uint64, len(b.Reqs))
	digs := make([]crypto.Digest, len(b.Reqs))
	for i := range b.Reqs {
		req := &b.Reqs[i]
		tss[i] = req.TS
		if c, ok := r.replies.get(req.Client, req.TS); ok {
			digs[i] = crypto.Hash(c.Rep)
		}
	}
	return tss, digs
}
