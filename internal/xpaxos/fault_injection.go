package xpaxos

import (
	"github.com/xft-consensus/xft/internal/smr"
)

// Fault-injection hooks: entry points for modeling *non-crash machine
// faults* in tests and experiments. A non-crash-faulty replica "acts
// arbitrarily but cannot break cryptographic primitives" (Section 2) —
// these hooks mutate the replica's local state exactly as stale
// storage, memory corruption or malicious software would, while all
// signatures remain genuine (signed with the replica's own key).
//
// They must never be called by production code; internal/faults wires
// them into Byzantine test scenarios.

// InjectDropCommitLog deletes commit-log entries in [from, to] — the
// "data loss" fault of Section 4.4 that fault detection is designed to
// catch.
func (r *Replica) InjectDropCommitLog(from, to smr.SeqNum) {
	for sn := from; sn <= to; sn++ {
		if s := r.slot(sn); s != nil {
			s.commit = nil
		}
	}
}

// InjectDropPrepareLog deletes prepare-log entries in [from, to].
func (r *Replica) InjectDropPrepareLog(from, to smr.SeqNum) {
	for sn := from; sn <= to; sn++ {
		if s := r.slot(sn); s != nil {
			s.prepare = nil
		}
	}
}

// InjectWipeState models a replica losing its entire protocol state —
// logs, checkpoints, proofs, sequence counters and client bookkeeping
// — while keeping its identity and keys. This is the "restored from an
// empty backup" data-loss fault: the machine continues to participate
// but remembers nothing it once acknowledged.
func (r *Replica) InjectWipeState() {
	r.log.wipe()
	r.chk = CheckpointProof{}
	r.chkSnapshot = nil
	r.views.wipe()
	r.preView = 0
	r.sn, r.ex = 0, 0
	for id := range r.watchTimers {
		r.env.CancelTimer(id)
	}
	r.sessions = make(map[smr.NodeID]*session)
	r.watchTimers = make(map[smr.TimerID]*request)
	r.intake.total, r.intake.ring = 0, nil
	r.intake.queued.Store(0) // the other counters are cumulative since boot
	// In-flight async crypto is volatile too. Completions already
	// submitted may still fire (the view did not change), but they find
	// empty bookkeeping and at worst make the replica emit messages a
	// faulty machine could emit anyway.
	r.intakeQ = nil
	r.fwdPending = nil
	r.fwdInFlight = false
}

// InjectForkPrepare replaces the prepare-log entry at sn with a forged
// batch signed by this replica. The forgery only verifies if this
// replica was the primary of the entry's view — exactly the power a
// Byzantine ex-primary has.
func (r *Replica) InjectForkPrepare(sn smr.SeqNum, forged Batch) bool {
	s := r.slot(sn)
	if s == nil || s.prepare == nil {
		return false
	}
	old := s.prepare
	o := signOrder(r.suite, r.primaryKind(), forged.Digest(), sn, old.View(), r.id, old.Primary.RepRoot)
	s.prepare = &PrepareEntry{Batch: forged, Primary: o}
	return true
}

// InjectRegressPrepare rewinds the prepare-log entry at sn to look as
// if it was prepared in an older view (a fork-I fault): the replica
// re-signs the entry's batch with a stale view number. Only meaningful
// if the replica was the primary of that older view.
func (r *Replica) InjectRegressPrepare(sn smr.SeqNum, oldView smr.View) bool {
	s := r.slot(sn)
	if s == nil || s.prepare == nil || s.prepare.View() <= oldView {
		return false
	}
	e := s.prepare
	o := signOrder(r.suite, r.primaryKind(), e.Primary.BatchD, sn, oldView, r.id, e.Primary.RepRoot)
	s.prepare = &PrepareEntry{Batch: e.Batch, Primary: o}
	return true
}

// SuspectView lets operators (and demos) trigger a view change by
// hand, e.g. to rotate the synchronous group for maintenance. It has
// the same effect as the replica suspecting view v itself.
func (r *Replica) SuspectView(v smr.View) { r.suspect(v) }
