package xpaxos

import (
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// logAheadWindows sizes the sequence log's admission window in units
// of Config.PipelineWindow. A correct primary assigns at most one
// window beyond its own execution mark, and a correct replica trails
// the primary by what is in flight towards it — about one more window
// — so anything further ahead of the local execution mark is not
// common-case traffic.
const logAheadWindows = 4

// seqLog is all of a replica's per-sequence-number state: the paper's
// PrepareLog and CommitLog (Algorithms 1–3) plus what the pipelined
// implementation keeps next to them, one slot per sequence number. It
// covers the window floor < sn ≤ ex + ahead, where floor is the stable
// checkpoint and ex the replica's execution mark. That window is the
// one admission rule for sequence numbers named by peers: outside it
// slot returns nil and nothing is stored, so a faulty peer cannot grow
// a correct replica's memory by spraying far sequence numbers.
type seqLog struct {
	floor smr.SeqNum
	ahead smr.SeqNum
	// slots[i] belongs to sequence number floor+1+i; nil until touched.
	// Slots are held by pointer so one stays valid while the log grows.
	slots []*slot
}

// slot is the state of one sequence number.
type slot struct {
	prepare *PrepareEntry // PrepareLog[sn]
	commit  *CommitEntry  // CommitLog[sn]
	// chk is the checkpoint candidate, at checkpoint heights only.
	chk *chkCandidate

	// The rest is volatile: it belongs to the current view's common
	// case and dropVolatile discards it when the view is abandoned.

	// buffered is a verified prepare entry that arrived ahead of order
	// (possible immediately after a view change, and whenever
	// signature checks complete out of order).
	buffered *PrepareEntry
	// votes holds the followers' commit orders by follower position in
	// the current group, nil until the first vote; an order with no
	// signature is a vote not cast. The t = 1 primary holds m1 here
	// while it awaits execution order.
	votes []Order
	// entryVerifying marks the prepare entry as being verified off-loop,
	// so a duplicate delivery is not verified twice; bit i of
	// orderVerifying does the same for follower i's commit order.
	entryVerifying bool
	orderVerifying uint64
}

// chkCandidate is the checkpoint state of one checkpoint height until
// a checkpoint at or above it stabilizes (Section 4.5.1).
type chkCandidate struct {
	snap   []byte                       // our replicated state at this height, once executed
	prechk map[smr.NodeID]crypto.Digest // MAC-authenticated pre-checkpoint votes
	chkpt  map[smr.NodeID]ChkptRecord   // signed checkpoint records
}

// slot returns the slot of sn, or nil if sn is outside the window.
func (l *seqLog) slot(sn, ex smr.SeqNum) *slot {
	if sn <= l.floor || sn > ex+l.ahead {
		return nil
	}
	i := int(sn - l.floor - 1)
	if i >= len(l.slots) {
		l.slots = append(l.slots, make([]*slot, i+1-len(l.slots))...)
	}
	if l.slots[i] == nil {
		l.slots[i] = new(slot)
	}
	return l.slots[i]
}

// truncate drops every slot at or below sn: a checkpoint stabilized
// there. The floor never moves back.
func (l *seqLog) truncate(sn smr.SeqNum) {
	if sn <= l.floor {
		return
	}
	n := min(int(sn-l.floor), len(l.slots))
	kept := copy(l.slots, l.slots[n:])
	clear(l.slots[kept:])
	l.slots = l.slots[:kept]
	l.floor = sn
}

// dropVolatile discards the common-case state of an abandoned view.
// The logs and the checkpoint candidates span views and stay.
func (l *seqLog) dropVolatile() {
	for _, s := range l.slots {
		if s != nil {
			s.buffered, s.votes = nil, nil
			s.entryVerifying, s.orderVerifying = false, 0
		}
	}
}

// keepSnaps drops all but the newest n candidate snapshots.
func (l *seqLog) keepSnaps(n int) {
	for i := len(l.slots) - 1; i >= 0; i-- {
		if s := l.slots[i]; s != nil && s.chk != nil && s.chk.snap != nil {
			if n--; n < 0 {
				s.chk.snap = nil
			}
		}
	}
}

// wipe forgets everything, floor included (fault injection only).
func (l *seqLog) wipe() { *l = seqLog{ahead: l.ahead} }

// commits returns the commit log in sequence order.
func (l *seqLog) commits() []CommitEntry {
	var out []CommitEntry
	for _, s := range l.slots {
		if s != nil && s.commit != nil {
			out = append(out, *s.commit)
		}
	}
	return out
}

// prepares returns the prepare log in sequence order.
func (l *seqLog) prepares() []PrepareEntry {
	var out []PrepareEntry
	for _, s := range l.slots {
		if s != nil && s.prepare != nil {
			out = append(out, *s.prepare)
		}
	}
	return out
}
