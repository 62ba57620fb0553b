package xpaxos

import (
	"sort"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// Fault detection (Section 4.4, Algorithms 5–6).
//
// With FD enabled, view-change messages also carry the sender's
// prepare log, the view it was generated in (pre_sj) and the final
// proof of that view's agreement. After collecting vc-final from all
// active replicas, each active replica:
//
//  1. runs the fault-detection predicates over the union of
//     view-change messages, convicting replicas whose logs exhibit
//     data-loss (state-loss), fork-I or fork-II faults;
//  2. removes convicted replicas' messages from the set;
//  3. signs and exchanges ⟨vc-confirm, i, D(VCSet)⟩; on t+1 matching
//     confirmations the filtered set becomes this view's *final
//     proof*, which travels in future view-change messages.
//
// Detection is a monitoring guarantee: convictions raise the
// OnFaultDetected callback and broadcast a MsgFaultProof so operators
// can remove the machine before its fault coincides with enough crash
// and network faults to produce anarchy.

// startConfirmRound begins the FD vc-confirm phase (Figure 13).
func (r *Replica) startConfirmRound() {
	st := r.vcState
	if st == nil || st.confirmSent {
		return
	}
	st.confirmSent = true

	r.detectFaults(st)

	// Remove messages from convicted replicas (Algorithm 5 lines 4–5).
	for key := range st.union {
		if r.fset[key.From] {
			delete(st.union, key)
		}
	}
	st.myConfirmD = unionDigest(st.union)
	if st.confirms == nil {
		st.confirms = make(map[smr.NodeID]*MsgVCConfirm)
	}
	m := &MsgVCConfirm{NewView: st.target, From: r.id, VCSetD: st.myConfirmD}
	m.Sig = r.suite.Sign(crypto.NodeID(r.id), m.SigPayload())
	r.sendActives(m)
	r.onVCConfirm(r.id, m)
}

// unionDigest canonically digests a view-change set.
func unionDigest(union map[vcKey]*MsgViewChange) crypto.Digest {
	keys := make([]vcKey, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return string(keys[i].D[:]) < string(keys[j].D[:])
	})
	w := wire.New(40 * len(keys)).Str("xp-union")
	for _, k := range keys {
		w.I64(int64(k.From)).Raw(k.D[:])
	}
	return crypto.Hash(w.Done())
}

// onVCConfirm collects confirmations; t+1 matching ones finalize the
// agreed set (Algorithm 5 lines 7–11).
func (r *Replica) onVCConfirm(from smr.NodeID, m *MsgVCConfirm) {
	st := r.vcState
	if st == nil || m.NewView != st.target || !st.confirmSent {
		return
	}
	if m.From != from && from != r.id {
		return
	}
	if !InGroup(r.n, r.t, st.target, m.From) {
		return
	}
	if from != r.id && !r.suite.Verify(crypto.NodeID(m.From), m.SigPayload(), m.Sig) {
		return
	}
	if st.confirms == nil {
		st.confirms = make(map[smr.NodeID]*MsgVCConfirm)
	}
	if _, dup := st.confirms[m.From]; dup {
		return
	}
	st.confirms[m.From] = m
	if len(st.confirms) < r.t+1 || st.fdDone {
		return
	}
	// All t+1 must match our digest; a mismatch means some active
	// replica disagrees about the evidence — suspect the view.
	for _, c := range st.confirms {
		if c.VCSetD != st.myConfirmD {
			r.suspect(r.view)
			return
		}
	}
	st.fdDone = true
	proof := make([]MsgVCConfirm, 0, r.t+1)
	for _, c := range st.confirms {
		proof = append(proof, *c)
	}
	sort.Slice(proof, func(i, j int) bool { return proof[i].From < proof[j].From })
	r.finalProofs[st.target] = proof
	agreed := make(map[vcKey]*MsgViewChange, len(st.union))
	for k, v := range st.union {
		agreed[k] = v
	}
	r.agreedVCSet[st.target] = agreed
	r.computeSelection()
}

// ---------------------------------------------------------------------------
// Detection predicates (Algorithm 6)
// ---------------------------------------------------------------------------

// prepEntryAt finds m's prepare-log entry at sn, if any.
func prepEntryAt(m *MsgViewChange, sn smr.SeqNum) *PrepareEntry {
	for i := range m.PrepareLog {
		if m.PrepareLog[i].SN() == sn {
			return &m.PrepareLog[i]
		}
	}
	return nil
}

// detectFaults runs the pairwise predicates over the union set.
func (r *Replica) detectFaults(st *vcState) {
	msgs := make([]*MsgViewChange, 0, len(st.union))
	for _, m := range st.union {
		msgs = append(msgs, m)
	}
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].From != msgs[j].From {
			return msgs[i].From < msgs[j].From
		}
		di, dj := msgs[i].contentDigest(), msgs[j].contentDigest()
		return string(di[:]) < string(dj[:])
	})
	// A replica sending two *different* view-change messages for the
	// same view change has equivocated: convict directly.
	for i := 0; i < len(msgs); i++ {
		for j := i + 1; j < len(msgs); j++ {
			if msgs[i].From == msgs[j].From {
				r.convict(msgs[i].From, "equivocation", 0, msgs[i], msgs[j], st.target)
			}
		}
	}

	// Index each message's prepare log by sequence number once: the
	// predicate loop below probes it per (entry, message) pair, and a
	// linear scan there is quadratic in the unstable tail length —
	// ruinous exactly when view changes churn and the tail grows.
	prepIdx := make([]map[smr.SeqNum]*PrepareEntry, len(msgs))
	for i, m := range msgs {
		idx := make(map[smr.SeqNum]*PrepareEntry, len(m.PrepareLog))
		for j := range m.PrepareLog {
			idx[m.PrepareLog[j].SN()] = &m.PrepareLog[j]
		}
		prepIdx[i] = idx
	}

	for _, mPrime := range msgs { // m' carries the commit log evidence
		for ci := range mPrime.CommitLog {
			ce := &mPrime.CommitLog[ci]
			if !r.verifyCommitEntry(ce) {
				continue
			}
			sn := ce.SN()
			iPrime := ce.View()       // view in which the entry was committed
			for mi, m := range msgs { // m is the suspect's message
				sk := m.From
				if sk == mPrime.From {
					continue
				}
				// Checkpoint truncation legitimately empties logs.
				if sn <= m.Checkpoint.SN {
					continue
				}
				skInOld := InGroup(r.n, r.t, iPrime, sk)
				pe := prepIdx[mi][sn]
				switch {
				case skInOld && pe == nil:
					// state-loss (line 3): sk served in sg_i' where this
					// entry committed, so its prepare log must cover sn;
					// an empty slot is a data-loss fault.
					r.convict(sk, "state-loss", sn, m, mPrime, st.target)
				case skInOld && pe != nil && (pe.View() < iPrime ||
					(pe.View() == iPrime && pe.Primary.BatchD != ce.Primary.BatchD)):
					// fork-I (line 6): sk's prepare log regressed below,
					// or diverged from, what it helped commit in i'.
					if r.verifyPrepareEntryForVC(pe) {
						r.convict(sk, "fork-i", sn, m, mPrime, st.target)
					}
				case pe != nil && pe.View() > iPrime && pe.View() < st.target &&
					pe.Primary.BatchD != ce.Primary.BatchD:
					// fork-II suspicion (line 9): sk presents a
					// higher-view prepare that conflicts with a commit
					// from a lower view. Ask the members of the higher
					// view's synchronous group to check sk's claim
					// against their stored agreement.
					if r.verifyPrepareEntryForVC(pe) {
						q := &MsgForkIIQuery{
							View: st.target, OldView: pe.View(), Culprit: sk,
							SN: sn, Evidence: m,
						}
						for _, id := range SyncGroup(r.n, r.t, pe.View()) {
							if id != r.id {
								r.env.Send(id, q)
							}
						}
						r.answerForkIIQuery(q) // we may be a member ourselves
					}
				}
			}
		}
	}
}

// convict records a detection, raises the callback and broadcasts the
// evidence.
func (r *Replica) convict(culprit smr.NodeID, kind string, sn smr.SeqNum, a, b *MsgViewChange, v smr.View) {
	id := faultID{Culprit: culprit, Kind: kind, SN: sn}
	if r.convicted[id] {
		return
	}
	r.convicted[id] = true
	r.fset[culprit] = true
	if r.cfg.OnFaultDetected != nil {
		r.cfg.OnFaultDetected(culprit, kind, sn)
	}
	proof := &MsgFaultProof{Kind: kind, View: v, Culprit: culprit, SN: sn, EvidenceA: a, EvidenceB: b}
	r.sendAllReplicas(proof)
}

// onFaultProof re-verifies broadcast evidence before accepting the
// conviction (Lemma 15: once one correct replica detects a fault,
// every correct replica eventually does).
func (r *Replica) onFaultProof(from smr.NodeID, m *MsgFaultProof) {
	id := faultID{Culprit: m.Culprit, Kind: m.Kind, SN: m.SN}
	if r.convicted[id] {
		return
	}
	if m.EvidenceA == nil || m.EvidenceB == nil {
		return
	}
	if !r.verifyFaultEvidence(m) {
		return
	}
	r.convicted[id] = true
	r.fset[m.Culprit] = true
	if r.cfg.OnFaultDetected != nil {
		r.cfg.OnFaultDetected(m.Culprit, m.Kind, m.SN)
	}
	r.sendAllReplicas(m) // Algorithm 6 lines 17–18: forward once
}

// verifyFaultEvidence re-runs the convicting predicate on the carried
// messages, so convictions cannot be forged against correct replicas.
func (r *Replica) verifyFaultEvidence(m *MsgFaultProof) bool {
	a, b := m.EvidenceA, m.EvidenceB
	if !r.suite.Verify(crypto.NodeID(a.From), a.SigPayload(), a.Sig) {
		return false
	}
	if !r.suite.Verify(crypto.NodeID(b.From), b.SigPayload(), b.Sig) {
		return false
	}
	switch m.Kind {
	case "equivocation":
		return a.From == m.Culprit && b.From == m.Culprit &&
			a.NewView == b.NewView && a.contentDigest() != b.contentDigest()
	case "state-loss", "fork-i":
		if a.From != m.Culprit {
			return false
		}
		var ce *CommitEntry
		for i := range b.CommitLog {
			if b.CommitLog[i].SN() == m.SN {
				ce = &b.CommitLog[i]
				break
			}
		}
		if ce == nil || !r.verifyCommitEntry(ce) {
			return false
		}
		if !InGroup(r.n, r.t, ce.View(), m.Culprit) || m.SN <= a.Checkpoint.SN {
			return false
		}
		pe := prepEntryAt(a, m.SN)
		if m.Kind == "state-loss" {
			return pe == nil
		}
		return pe != nil && r.verifyPrepareEntryForVC(pe) &&
			(pe.View() < ce.View() || (pe.View() == ce.View() && pe.Primary.BatchD != ce.Primary.BatchD))
	case "fork-ii":
		// A fork-II conviction is anchored in an old group member's
		// stored agreement, which remote replicas cannot re-check; we
		// surface it for monitoring without protocol-level effect.
		if r.cfg.OnFaultDetected != nil {
			r.cfg.OnFaultDetected(m.Culprit, "fork-ii-alert", m.SN)
		}
		return false
	default:
		return false
	}
}

// answerForkIIQuery checks a suspicious prepare log against our stored
// agreement for the old view (Algorithm 6 lines 12–16).
func (r *Replica) answerForkIIQuery(q *MsgForkIIQuery) {
	if q.Evidence == nil {
		return
	}
	agreed, ok := r.agreedVCSet[q.OldView]
	if !ok {
		return // we did not take part in that view change
	}
	pe := prepEntryAt(q.Evidence, q.SN)
	if pe == nil || pe.View() != q.OldView {
		return
	}
	// Recompute what the view change to q.OldView selected at q.SN; a
	// correct replica's prepare log in that view must contain exactly
	// the selected batch.
	selected, ok := r.selectionAt(agreed, q.SN)
	if !ok {
		return
	}
	if pe.Primary.BatchD != selected {
		r.convict(q.Culprit, "fork-ii", q.SN, q.Evidence, nil, q.View)
	}
}

// selectionAt recomputes the batch digest selected at sn by the
// agreement `agreed` (highest-view commit entry, FD prepare overlay).
func (r *Replica) selectionAt(agreed map[vcKey]*MsgViewChange, sn smr.SeqNum) (crypto.Digest, bool) {
	var best crypto.Digest
	bestView := smr.View(0)
	found := false
	for _, vc := range agreed {
		for i := range vc.CommitLog {
			e := &vc.CommitLog[i]
			if e.SN() == sn && (!found || e.View() > bestView) && r.verifyCommitEntry(e) {
				best, bestView, found = e.Primary.BatchD, e.View(), true
			}
		}
		for i := range vc.PrepareLog {
			e := &vc.PrepareLog[i]
			if e.SN() == sn && (!found || e.View() > bestView) && r.verifyPrepareEntryForVC(e) {
				best, bestView, found = e.Primary.BatchD, e.View(), true
			}
		}
	}
	return best, found
}

// onForkIIQuery handles a remote fork-II consultation.
func (r *Replica) onForkIIQuery(from smr.NodeID, q *MsgForkIIQuery) {
	r.answerForkIIQuery(q)
}
