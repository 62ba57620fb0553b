package xpaxos

import (
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// maxFutureViews caps, per sender, the distinct views above the
// replica's own for which it holds that sender's messages. A correct
// replica names views in increasing order and only its newest message
// can still matter, so at the cap the lowest view's messages go first.
const maxFutureViews = 4

// suspectMemory is how many views below its own a replica remembers
// whose ⟨suspect⟩ it relayed. A suspect of an older view is ignored
// rather than gossiped again: whoever it could still move learns of the
// later views from their own suspects and view-change messages.
const suspectMemory = 8

// viewLog is all of a replica's per-view state (Algorithms 3, 5, 6),
// one record per view. A record exists from the first admitted message
// naming its view until prune drops it, so what is buffered for a
// future view and what is being collected for the current one are the
// same maps. admit is the one rule for messages from peers, checked
// before any signature: a peer pins at most maxFutureViews+1 records,
// each holding one view-change, one vc-final of at most n view-change
// messages and one new-view of its own — a constant × n messages —
// and the log holds at most n·maxFutureViews + suspectMemory + 2
// records however many views peers name.
type viewLog map[smr.View]*viewRecord

// viewRecord is the state of one view.
type viewRecord struct {
	// suspects are the active replicas of this view whose ⟨suspect⟩ we
	// have relayed (or sent).
	suspects map[smr.NodeID]bool

	// Verified messages naming this view as the new view, the first
	// from each sender.
	vcs     map[smr.NodeID]*MsgViewChange
	finals  map[smr.NodeID]*MsgVCFinal
	newView *MsgNewView

	// The rest belongs to the view change into this view, from the
	// moment this replica, active in it, enters it (collecting) until
	// it installs or abandons the view.
	collecting bool
	netTimer   smr.TimerID
	netExpired bool
	vcTimer    smr.TimerID
	finalSent  bool
	// union is every distinct verified view-change message in vcs and
	// finals, ordered by (sender, digest): a non-crash-faulty sender
	// may distribute several versions, and fault detection wants to see
	// all of them. Built once all t+1 vc-finals are in.
	union []*MsgViewChange

	// FD confirmation round.
	confirmSent bool
	confirmD    crypto.Digest
	confirms    map[smr.NodeID]*MsgVCConfirm
	fdDone      bool

	// Selection output: selection[i] is sequence number selChk.SN+1+i.
	selDone     bool
	selection   []selEntry
	selChk      CheckpointProof
	selSnapshot []byte

	// What fault detection can still be asked once the view is
	// installed, kept while it is the last one installed (preView): the
	// final proof, and for fork-II queries the digest of the batch
	// selected at selChk.SN+1+i (zero at a hole). Never a snapshot.
	finalProof []MsgVCConfirm
	selected   []crypto.Digest
}

// holds reports whether the record keeps a message signed by id.
func (rec *viewRecord) holds(id smr.NodeID) bool {
	return rec.vcs[id] != nil || rec.finals[id] != nil || (rec.newView != nil && rec.newView.From == id)
}

// viewMsg is a signed message naming a view.
type viewMsg interface {
	SigPayload() []byte
	signed() (smr.View, smr.NodeID, crypto.Signature)
}

func (m *MsgSuspect) signed() (smr.View, smr.NodeID, crypto.Signature) { return m.View, m.From, m.Sig }
func (m *MsgViewChange) signed() (smr.View, smr.NodeID, crypto.Signature) {
	return m.NewView, m.From, m.Sig
}
func (m *MsgVCFinal) signed() (smr.View, smr.NodeID, crypto.Signature) {
	return m.NewView, m.From, m.Sig
}
func (m *MsgVCConfirm) signed() (smr.View, smr.NodeID, crypto.Signature) {
	return m.NewView, m.From, m.Sig
}
func (m *MsgNewView) signed() (smr.View, smr.NodeID, crypto.Signature) {
	return m.NewView, m.From, m.Sig
}

// admit is the admission rule: it returns the record of the view m
// names if m, delivered by from, may extend it — creating the record if
// need be — and nil if m is to be dropped. Our own messages (from is
// us) are taken as they are. A peer's message must
//
//   - be new: the first of its kind from its signer in that view;
//   - come from a signer entitled to it: a ⟨suspect⟩ from an active
//     replica of the suspected view, not more than suspectMemory views
//     back, relayed by anyone; the rest straight from the signer — any
//     replica for view-change, an active replica of the new view for
//     vc-final and vc-confirm, its primary for new-view;
//   - name, unless it is a ⟨suspect⟩, a view we are active in and have
//     not passed: one ahead of ours, or ours while we collect for it
//     (and, for vc-confirm, have sent our own);
//   - leave its signer within maxFutureViews views ahead of ours: at
//     the cap a view below all the signer's others is refused, a higher
//     one evicts the signer's messages from the lowest;
//   - and only then carry a valid signature.
func (r *Replica) admit(from smr.NodeID, m viewMsg) *viewRecord {
	v, signer, sig := m.signed()
	rec := r.views[v]
	if rec == nil {
		rec = new(viewRecord)
	}
	if from != r.id {
		ok := from == signer && InGroup(r.n, r.t, v, r.id) && (v > r.view || rec.collecting)
		capped := v > r.view && !rec.holds(signer)
		switch m := m.(type) {
		case *MsgSuspect:
			ok = v+suspectMemory >= r.view && InGroup(r.n, r.t, v, signer) && !rec.suspects[signer]
			capped = false
		case *MsgViewChange:
			ok = ok && signer >= 0 && int(signer) < r.n && rec.vcs[signer] == nil
		case *MsgVCFinal:
			ok = ok && InGroup(r.n, r.t, v, signer) && len(m.VCSet) <= r.n && rec.finals[signer] == nil
		case *MsgVCConfirm:
			ok = ok && rec.confirmSent && InGroup(r.n, r.t, v, signer) && rec.confirms[signer] == nil
		case *MsgNewView:
			ok = ok && signer == Primary(r.n, r.t, v) && rec.newView == nil
		}
		lowest := v
		if ok && capped {
			// The views ahead of ours that hold a message of the signer's.
			ahead := 0
			for fv, frec := range r.views {
				if fv > r.view && frec.holds(signer) {
					ahead++
					lowest = min(lowest, fv)
				}
			}
			capped = ahead >= maxFutureViews
		}
		if !ok || (capped && lowest == v) || !r.suite.Verify(crypto.NodeID(signer), m.SigPayload(), sig) {
			return nil
		}
		if low := r.views[lowest]; capped {
			delete(low.vcs, signer)
			delete(low.finals, signer)
			if low.newView != nil && low.newView.From == signer {
				low.newView = nil
			}
			if len(low.vcs)+len(low.finals) == 0 && low.newView == nil {
				delete(r.views, lowest)
			}
		}
	}
	if r.views[v] == nil {
		rec.suspects = make(map[smr.NodeID]bool)
		rec.vcs = make(map[smr.NodeID]*MsgViewChange)
		rec.finals = make(map[smr.NodeID]*MsgVCFinal)
		rec.confirms = make(map[smr.NodeID]*MsgVCConfirm)
		r.views[v] = rec
	}
	return rec
}

// collecting returns the record of the current view while this replica
// is collecting for its view change, nil otherwise.
func (r *Replica) collecting() *viewRecord {
	if rec := r.views[r.view]; rec != nil && rec.collecting {
		return rec
	}
	return nil
}

// prune drops what nothing can ask for any more. It runs when a view
// is entered, when one is installed and at a stable checkpoint. Records
// of views ahead, and of the current one while its view change runs,
// stay whole. Any other keeps its suspect marks while within
// suspectMemory of the current view and, if it is the last view
// installed, what fault detection is still asked about it; a record
// left with nothing is deleted.
func (r *Replica) prune() {
	for v, rec := range r.views {
		if v > r.view || (v == r.view && r.status == statusViewChange) {
			continue
		}
		kept := viewRecord{suspects: rec.suspects}
		if v+suspectMemory < r.view {
			kept.suspects = nil
		}
		if v == r.preView {
			kept.finalProof, kept.selected, kept.selChk.SN = rec.finalProof, rec.selected, rec.selChk.SN
		}
		if *rec = kept; len(rec.suspects) == 0 && rec.finalProof == nil && rec.selected == nil {
			delete(r.views, v)
		}
	}
}

// wipe forgets the fault-detection evidence of every view (fault
// injection only).
func (l viewLog) wipe() {
	for _, rec := range l {
		rec.finalProof, rec.selected = nil, nil
	}
}
