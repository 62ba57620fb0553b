package xpaxos

import (
	"maps"
	"slices"

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
func (r *Replica) startConfirmRound(rec *viewRecord) {
	rec.confirmSent = true
	r.detectFaults(rec)

	// Remove messages from convicted replicas (Algorithm 5 lines 4–5)
	// and digest what is left, canonically: the union is ordered.
	rec.union = slices.DeleteFunc(rec.union, func(m *MsgViewChange) bool { return r.fset[m.From] })
	w := wire.New(40 * len(rec.union)).Str("xp-union")
	for _, m := range rec.union {
		d := m.contentDigest()
		w.I64(int64(m.From)).Raw(d[:])
	}
	rec.confirmD = crypto.Hash(w.Done())
	m := &MsgVCConfirm{NewView: r.view, From: r.id, VCSetD: rec.confirmD}
	m.Sig = r.suite.Sign(crypto.NodeID(r.id), m.SigPayload())
	r.sendActives(m)
	r.onVCConfirm(r.id, m)
}

// onVCConfirm collects confirmations; t+1 matching ones finalize the
// agreed set (Algorithm 5 lines 7–11).
func (r *Replica) onVCConfirm(from smr.NodeID, m *MsgVCConfirm) {
	rec := r.admit(from, m)
	if rec == nil {
		return
	}
	rec.confirms[m.From] = m
	if len(rec.confirms) < r.t+1 || rec.fdDone {
		return
	}
	// All t+1 must match our digest; a mismatch means some active
	// replica disagrees about the evidence — suspect the view.
	for _, c := range rec.confirms {
		if c.VCSetD != rec.confirmD {
			r.suspect(r.view)
			return
		}
	}
	rec.fdDone = true
	for _, id := range slices.Sorted(maps.Keys(rec.confirms)) {
		rec.finalProof = append(rec.finalProof, *rec.confirms[id])
	}
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
func (r *Replica) detectFaults(rec *viewRecord) {
	msgs, target := rec.union, r.view
	// A replica sending two *different* view-change messages for the
	// same view change has equivocated: convict directly.
	for i := 0; i < len(msgs); i++ {
		for j := i + 1; j < len(msgs); j++ {
			if msgs[i].From == msgs[j].From {
				r.convict(msgs[i].From, "equivocation", 0, msgs[i], msgs[j], target)
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
					r.convict(sk, "state-loss", sn, m, mPrime, target)
				case skInOld && pe != nil && (pe.View() < iPrime ||
					(pe.View() == iPrime && pe.Primary.BatchD != ce.Primary.BatchD)):
					// fork-I (line 6): sk's prepare log regressed below,
					// or diverged from, what it helped commit in i'.
					if r.verifyPrepareEntryForVC(pe) {
						r.convict(sk, "fork-i", sn, m, mPrime, target)
					}
				case pe != nil && pe.View() > iPrime && pe.View() < target &&
					pe.Primary.BatchD != ce.Primary.BatchD:
					// fork-II suspicion (line 9): sk presents a
					// higher-view prepare that conflicts with a commit
					// from a lower view. Ask the members of the higher
					// view's synchronous group to check sk's claim
					// against their stored agreement.
					if r.verifyPrepareEntryForVC(pe) {
						q := &MsgForkIIQuery{
							View: target, OldView: pe.View(), Culprit: sk,
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

// answerForkIIQuery checks a suspicious prepare log against what the
// view change to the old view selected (Algorithm 6 lines 12–16): a
// correct replica's prepare log in that view holds exactly the selected
// batch. We can speak for the last view we installed only; its record
// keeps the selected digests and nothing older is retained.
func (r *Replica) answerForkIIQuery(q *MsgForkIIQuery) {
	rec, ev := r.views[q.OldView], q.Evidence
	if rec == nil || ev == nil || ev.From != q.Culprit {
		return // we did not take part in that view change, or have moved on
	}
	pe := prepEntryAt(ev, q.SN)
	if pe == nil || pe.View() != q.OldView {
		return
	}
	i := q.SN - rec.selChk.SN - 1 // wraps to a huge index at or below the checkpoint
	if i >= smr.SeqNum(len(rec.selected)) || rec.selected[i] == (crypto.Digest{}) {
		return // nothing was selected there to hold anyone to
	}
	// The query comes from any peer: the culprit must have signed the
	// log, and the old primary the entry, before either counts.
	if pe.Primary.BatchD != rec.selected[i] && r.verifyPrepareEntryForVC(pe) &&
		r.suite.Verify(crypto.NodeID(ev.From), ev.SigPayload(), ev.Sig) {
		r.convict(q.Culprit, "fork-ii", q.SN, ev, nil, q.View)
	}
}

// onForkIIQuery handles a remote fork-II consultation.
func (r *Replica) onForkIIQuery(from smr.NodeID, q *MsgForkIIQuery) {
	r.answerForkIIQuery(q)
}
