package xpaxos

import (
	"bytes"
	"cmp"
	"maps"
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// selEntry is what a view change selected at one sequence number.
type selEntry struct {
	Batch Batch
	// FromView is the view of the log entry that won the selection.
	FromView smr.View
	// FromPrepare marks entries selected from a prepare log (FD mode).
	FromPrepare bool
	// Hole marks a sequence number no benign replica committed or
	// prepared: it gets the no-op batch, so numbering stays contiguous.
	Hole bool
}

// suspect initiates (or joins) a view change away from view v
// (Section 4.3.2). Only active replicas of v may initiate; passive
// replicas and later views join when they receive the suspect message.
func (r *Replica) suspect(v smr.View) {
	if v < r.view || !InGroup(r.n, r.t, v, r.id) {
		return
	}
	// Our own mark keeps us from relaying our suspect when peers gossip
	// it back.
	m := r.makeSuspect(v)
	r.admit(r.id, m).suspects[r.id] = true
	r.sendAllReplicas(m)
	r.enterView(v + 1)
}

// onSuspect handles ⟨suspect, i, sk⟩σ — possibly relayed by a client.
func (r *Replica) onSuspect(from smr.NodeID, m *MsgSuspect) {
	rec := r.admit(from, m)
	if rec == nil {
		return
	}
	rec.suspects[m.From] = true
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
	r.stopCollecting()
	r.view = nv
	r.group = SyncGroup(r.n, r.t, nv)
	r.status = statusViewChange
	r.prune()
	if r.suspectDoomedView() {
		// A member of nv's group is known down: nv cannot install, and as
		// one of its active replicas we have said so and entered the next
		// view, which reset everything below. No view-change message, no
		// timer and no back-off step are spent on nv.
		return
	}

	// Abandon per-view volatile state in the log and the sessions, and
	// what the async crypto pipeline has in flight: completions submitted
	// under the dead view are discarded by goCrypto's epoch guard, so the
	// bookkeeping they would have released is reset here. Intake batches
	// mid-verification are dropped like requests batched into dead-view
	// prepares: retransmissions are judged fresh.
	r.log.dropVolatile()
	r.pruneSessions(true)
	if r.batchTimerSet {
		r.env.CancelTimer(r.batchTimer)
		r.batchTimerSet = false
	}
	r.intakeQ = nil
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

	// Our own view-change message joins whatever nv's record already
	// holds from peers that got here first.
	rec := r.admit(r.id, vc)
	rec.vcs[r.id] = vc
	rec.collecting = true
	rec.netTimer = r.env.SetTimer(2*r.cfg.Delta, "vc-net")
	r.vcConsec++
	boff := r.vcConsec - 1
	if boff > 4 {
		boff = 4
	}
	rec.vcTimer = r.env.SetTimer(r.cfg.ViewChangeTimeout<<boff, "vc")
	r.checkVCSetComplete()
}

// stopCollecting ends the current view's view change, installed or
// abandoned.
func (r *Replica) stopCollecting() {
	if rec := r.collecting(); rec != nil {
		r.env.CancelTimer(rec.netTimer)
		r.env.CancelTimer(rec.vcTimer)
		rec.collecting = false
	}
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
		if rec := r.views[r.preView]; rec != nil {
			vc.FinalProof = rec.finalProof
		}
	}
	vc.Sig = r.suite.Sign(crypto.NodeID(r.id), vc.SigPayload())
	return vc
}

// onViewChange files a ⟨view-change⟩ for the view we are collecting
// for, or for one ahead.
func (r *Replica) onViewChange(from smr.NodeID, m *MsgViewChange) {
	rec := r.admit(from, m)
	if rec == nil {
		return
	}
	rec.vcs[m.From] = m
	if rec.collecting {
		r.checkVCSetComplete()
	} else if len(rec.vcs) >= r.t+1 {
		// t+1 replicas moving to the view imply at least one correct
		// replica did; join them.
		r.enterView(m.NewView)
	}
}

// checkVCSetComplete sends vc-final once the collection condition of
// Algorithm 3 line 13 holds: all n messages, or the 2Δ timer expired
// with at least n−t messages.
func (r *Replica) checkVCSetComplete() {
	rec := r.collecting()
	if rec == nil || rec.finalSent {
		return
	}
	if len(rec.vcs) == r.n || (rec.netExpired && len(rec.vcs) >= r.n-r.t) {
		rec.finalSent = true
		vcs := make([]*MsgViewChange, 0, len(rec.vcs))
		for _, id := range slices.Sorted(maps.Keys(rec.vcs)) {
			vcs = append(vcs, rec.vcs[id])
		}
		f := &MsgVCFinal{NewView: r.view, From: r.id, VCSet: vcs}
		f.Sig = r.suite.Sign(crypto.NodeID(r.id), f.SigPayload())
		r.sendActives(f)
		r.onVCFinal(r.id, f)
	}
}

func (r *Replica) onNetTimer(id smr.TimerID) {
	if rec := r.collecting(); rec != nil && id == rec.netTimer {
		rec.netExpired = true
		r.checkVCSetComplete()
	}
}

func (r *Replica) onVCTimer(id smr.TimerID) {
	if rec := r.collecting(); rec != nil && id == rec.vcTimer {
		// View change did not complete in time (Section 4.3.2 (iii)).
		r.suspect(r.view)
	}
}

// onVCFinal collects ⟨vc-final⟩ from all active replicas of the new
// view (Algorithm 3 line 16). Ours is the last one in — it goes out
// only while we collect — so the count completes at most once, then.
// With FD the confirm round interposes; otherwise we select at once.
func (r *Replica) onVCFinal(from smr.NodeID, m *MsgVCFinal) {
	rec := r.admit(from, m)
	if rec == nil {
		return
	}
	rec.finals[m.From] = m
	if !rec.collecting || len(rec.finals) != r.t+1 {
		return
	}
	rec.union = r.unionOf(rec)
	if r.cfg.EnableFD {
		r.startConfirmRound(rec)
	} else {
		r.computeSelection()
	}
}

// unionOf returns, ordered by (sender, digest), every distinct
// view-change message of rec: what we collected ourselves plus those
// piggybacked on the vc-finals whose relayed signatures verify.
func (r *Replica) unionOf(rec *viewRecord) []*MsgViewChange {
	union := make(map[vcKey]*MsgViewChange)
	add := func(vc *MsgViewChange, verified bool) {
		key := vcKey{From: vc.From, D: vc.contentDigest()}
		if union[key] == nil && (verified || r.suite.Verify(crypto.NodeID(vc.From), vc.SigPayload(), vc.Sig)) {
			union[key] = vc
		}
	}
	for _, vc := range rec.vcs {
		add(vc, true)
	}
	for _, f := range rec.finals {
		for _, vc := range f.VCSet {
			add(vc, false)
		}
	}
	out := make([]*MsgViewChange, 0, len(union))
	for _, key := range slices.SortedFunc(maps.Keys(union), vcKey.compare) {
		out = append(out, union[key])
	}
	return out
}

// vcKey identifies a distinct view-change message in the union.
type vcKey struct {
	From smr.NodeID
	D    crypto.Digest
}

func (a vcKey) compare(b vcKey) int {
	return cmp.Or(cmp.Compare(a.From, b.From), bytes.Compare(a.D[:], b.D[:]))
}

// computeSelection implements Algorithm 3 lines 18–24 (and, with FD,
// Algorithm 5 lines 12–21): per sequence number take the commit log
// with the highest view; FD also considers prepare logs.
func (r *Replica) computeSelection() {
	rec := r.collecting()
	if rec == nil || rec.selDone {
		return
	}
	rec.selDone = true

	// 1. Adopt the highest valid checkpoint offered.
	rec.selChk, rec.selSnapshot = r.chk, r.chkSnapshot
	for _, vc := range rec.union {
		if r.fset[vc.From] {
			continue
		}
		if vc.Checkpoint.SN > rec.selChk.SN && r.verifyCheckpointProof(&vc.Checkpoint) &&
			crypto.Hash(vc.Snapshot) == vc.Checkpoint.StateD {
			rec.selChk, rec.selSnapshot = vc.Checkpoint, vc.Snapshot
		}
	}

	// 2. Select, per sequence number above the checkpoint, the commit
	// entry with the highest view (and with FD, prepare entries too).
	floor := rec.selChk.SN
	consider := func(sn smr.SeqNum, v smr.View, b Batch, fromPrepare bool) {
		if sn <= floor {
			return
		}
		for smr.SeqNum(len(rec.selection)) < sn-floor {
			rec.selection = append(rec.selection, selEntry{Hole: true})
		}
		cur := &rec.selection[sn-floor-1]
		if cur.Hole || v > cur.FromView || (v == cur.FromView && cur.FromPrepare && !fromPrepare) {
			*cur = selEntry{Batch: b, FromView: v, FromPrepare: fromPrepare}
		}
	}
	for _, vc := range rec.union {
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
		reach := floor + smr.SeqNum(len(rec.selection)) + r.log.ahead
		for _, vc := range rec.union {
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
		rec.selected = make([]crypto.Digest, len(rec.selection))
		for i := range rec.selection {
			if e := &rec.selection[i]; !e.Hole {
				rec.selected[i] = e.Batch.Digest()
			}
		}
	}

	// 3. The new primary re-prepares the selection (new-view).
	if r.isPrimary() {
		r.sendNewView()
	} else if rec.newView != nil {
		r.processNewView(rec.newView)
	}
}

// verifyPrepareEntryForVC validates a prepare entry carried in a
// view-change message (any view, not just the current one).
func (r *Replica) verifyPrepareEntryForVC(e *PrepareEntry) bool {
	return r.checkPrepareEntryShape(e) && verifyOrder(r.suite, &e.Primary)
}

// sendNewView is the new primary's Algorithm 3 lines 20–24.
func (r *Replica) sendNewView() {
	rec := r.collecting()
	if rec == nil || !rec.selDone {
		return
	}
	kind := r.primaryKind()
	prepares := make([]PrepareEntry, len(rec.selection))
	for i := range rec.selection {
		b := rec.selection[i].Batch
		o := signOrder(r.suite, kind, b.Digest(), rec.selChk.SN+1+smr.SeqNum(i), r.view, r.id, crypto.Digest{})
		prepares[i] = PrepareEntry{Batch: b, Primary: o}
	}
	nv := &MsgNewView{NewView: r.view, From: r.id, Prepares: prepares}
	nv.Sig = r.suite.Sign(crypto.NodeID(r.id), nv.SigPayload())
	r.sendActives(nv)
	r.onNewView(r.id, nv)
}

// onNewView files ⟨new-view⟩ (Algorithm 3 lines 25–33) and acts on it
// once our own selection is done.
func (r *Replica) onNewView(from smr.NodeID, m *MsgNewView) {
	rec := r.admit(from, m)
	if rec == nil {
		return
	}
	rec.newView = m
	if rec.selDone {
		r.processNewView(m)
	}
}

// processNewView validates the primary's prepare log against our own
// selection and, on success, installs the new view.
func (r *Replica) processNewView(m *MsgNewView) {
	rec := r.collecting()
	if rec == nil || !rec.selDone || r.status != statusViewChange {
		return
	}
	// The prepare log must exactly match our selection (same range,
	// same batches) — otherwise the new primary is lying; suspect it.
	if len(m.Prepares) != len(rec.selection) {
		r.suspect(r.view)
		return
	}
	kind := r.primaryKind()
	for i := range m.Prepares {
		e := &m.Prepares[i]
		sel := &rec.selection[i]
		if e.SN() != rec.selChk.SN+1+smr.SeqNum(i) || e.Primary.View != r.view ||
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
	if rec.selChk.SN > r.chk.SN {
		r.adoptCheckpoint(rec.selChk, rec.selSnapshot)
	}
	selMax := rec.selChk.SN + smr.SeqNum(len(rec.selection))
	for sn := max(r.ex, rec.selChk.SN) + 1; sn <= selMax; sn++ {
		r.applyBatch(&rec.selection[sn-rec.selChk.SN-1].Batch, sn, r.view)
		r.ex = sn
	}
	for i := range m.Prepares {
		e := m.Prepares[i]
		if s := r.slot(e.SN()); s != nil {
			s.prepare = &e
		}
	}
	// Every active replica resumes from the selection's end — the group
	// must agree on the next sequence number (Algorithm 3 line 29).
	r.sn = selMax
	r.preView = r.view

	// Leave view-change mode. The record keeps only what fault detection
	// may still ask about the installed view.
	r.stopCollecting()
	r.status = statusNormal
	r.prune()
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
	for _, c := range r.knownClients() {
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
		if c, ok := r.reply(req.Client, req.TS); ok {
			digs[i] = crypto.Hash(c.Rep)
		}
	}
	return tss, digs
}
