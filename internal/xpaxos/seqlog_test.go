package xpaxos

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/xft-consensus/xft/internal/smr"
)

// retainedSlots counts the sequence numbers r holds any state for.
func retainedSlots(r *Replica) int {
	n := 0
	for _, s := range r.log.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// retainedCandidates counts the checkpoint heights r holds a candidate
// for.
func retainedCandidates(r *Replica) int {
	n := 0
	for _, s := range r.log.slots {
		if s != nil && s.chk != nil {
			n++
		}
	}
	return n
}

// refSlot is one sequence number of the reference model: the same
// fields as slot, held the way the replica used to hold them.
type refSlot struct {
	prepare, buffered *PrepareEntry
	commit            *CommitEntry
	votes             map[int]Order
	entryVerifying    bool
	orderVerifying    map[int]bool
	snap              []byte
}

// refLog is the plain map-based model seqLog is checked against: one
// map from sequence number to state, one window rule, and the
// truncate/dropVolatile loops the replica used to spell out per map.
type refLog struct {
	floor, ahead smr.SeqNum
	m            map[smr.SeqNum]*refSlot
}

func (l *refLog) slot(sn, ex smr.SeqNum) *refSlot {
	if sn <= l.floor || sn > ex+l.ahead {
		return nil
	}
	if l.m[sn] == nil {
		l.m[sn] = &refSlot{votes: map[int]Order{}, orderVerifying: map[int]bool{}}
	}
	return l.m[sn]
}

func (l *refLog) truncate(sn smr.SeqNum) {
	if sn <= l.floor {
		return
	}
	for k := range l.m {
		if k <= sn {
			delete(l.m, k)
		}
	}
	l.floor = sn
}

func (l *refLog) dropVolatile() {
	for _, s := range l.m {
		s.buffered, s.entryVerifying = nil, false
		s.votes, s.orderVerifying = map[int]Order{}, map[int]bool{}
	}
}

func (l *refLog) sorted() []smr.SeqNum {
	sns := make([]smr.SeqNum, 0, len(l.m))
	for sn := range l.m {
		sns = append(sns, sn)
	}
	slices.Sort(sns)
	return sns
}

// TestSeqLogMatchesMapModel drives seqLog and the map model through
// the same random operations — stores, votes, marks, snapshots,
// truncation, view drops, wipes to zero, accesses on both sides of
// both window edges — over a log with holes, and after every step
// compares every sequence number's contents and both in-order walks.
func TestSeqLogMatchesMapModel(t *testing.T) {
	const followers = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ahead := smr.SeqNum(1 + rng.Intn(12))
		log := seqLog{ahead: ahead}
		ref := refLog{ahead: ahead, m: map[smr.SeqNum]*refSlot{}}
		var ex smr.SeqNum

		for step := 0; step < 3000; step++ {
			// Aim around the window, a little past both edges.
			lo := int(ref.floor) - 3
			sn := smr.SeqNum(max(0, lo+rng.Intn(int(ex+ahead)-lo+4)))
			s, rs := log.slot(sn, ex), ref.slot(sn, ex)
			if (s == nil) != (rs == nil) {
				t.Fatalf("seed %d step %d: slot(%d) admitted=%v, model admitted=%v (floor %d ex %d ahead %d)",
					seed, step, sn, s != nil, rs != nil, ref.floor, ex, ahead)
			}
			pos := rng.Intn(followers)
			switch op := rng.Intn(12); {
			case s == nil:
				// Outside the window: nothing to store on either side.
			case op == 0:
				e := &PrepareEntry{Primary: Order{SN: sn}}
				s.prepare, rs.prepare = e, e
			case op == 1:
				e := &CommitEntry{Primary: Order{SN: sn}}
				s.commit, rs.commit = e, e
			case op == 2:
				e := &PrepareEntry{Primary: Order{SN: sn}}
				s.buffered, rs.buffered = e, e
			case op == 3:
				o := Order{SN: sn, From: smr.NodeID(pos), Sig: []byte{byte(step)}}
				if s.votes == nil {
					s.votes = make([]Order, followers)
				}
				s.votes[pos], rs.votes[pos] = o, o
			case op == 4:
				s.entryVerifying, rs.entryVerifying = true, true
				s.orderVerifying |= 1 << pos
				rs.orderVerifying[pos] = true
			case op == 5:
				if s.chk == nil {
					s.chk = new(chkCandidate)
				}
				s.chk.snap, rs.snap = []byte{byte(step)}, []byte{byte(step)}
			case op == 6:
				s.prepare, rs.prepare = nil, nil // a hole (InjectDropPrepareLog)
				s.commit, rs.commit = nil, nil
			}
			switch op := rng.Intn(40); {
			case op < 8:
				ex += smr.SeqNum(rng.Intn(3)) // execution advances
			case op == 8 && ex > 0:
				to := smr.SeqNum(rng.Intn(int(ex) + 1))
				log.truncate(to)
				ref.truncate(to)
			case op == 9:
				to := ex + ahead + smr.SeqNum(rng.Intn(3)) // adopt a checkpoint past everything held
				log.truncate(to)
				ref.truncate(to)
				ex = to
			case op == 10:
				log.dropVolatile()
				ref.dropVolatile()
			case op == 11 && rng.Intn(10) == 0:
				log.wipe()
				ref = refLog{ahead: ahead, m: map[smr.SeqNum]*refSlot{}}
				ex = 0
			}
			compareLogs(t, seed, step, &log, &ref, ex, followers)
		}
	}
}

func compareLogs(t *testing.T, seed int64, step int, log *seqLog, ref *refLog, ex smr.SeqNum, followers int) {
	t.Helper()
	fail := func(sn smr.SeqNum, what string) {
		t.Fatalf("seed %d step %d: sn %d: %s differs from the map model (floor %d ex %d)", seed, step, sn, what, ref.floor, ex)
	}
	if log.floor != ref.floor {
		t.Fatalf("seed %d step %d: floor %d, model %d", seed, step, log.floor, ref.floor)
	}
	if n := len(log.slots); n > 0 && log.floor+smr.SeqNum(n) > ex+log.ahead {
		t.Fatalf("seed %d step %d: %d slots above floor %d reach past ex %d + ahead %d", seed, step, n, log.floor, ex, log.ahead)
	}
	var wantCommits []CommitEntry
	var wantPrepares []PrepareEntry
	empty := &refSlot{}
	for sn := smr.SeqNum(0); sn <= ex+log.ahead+2; sn++ {
		var s *slot
		if i := int(sn) - int(log.floor) - 1; i >= 0 && i < len(log.slots) {
			s = log.slots[i]
		}
		rs := ref.m[sn]
		if s == nil {
			s = new(slot)
		}
		if rs == nil {
			rs = empty
		}
		if s.prepare != rs.prepare {
			fail(sn, "prepare")
		}
		if s.commit != rs.commit {
			fail(sn, "commit")
		}
		if s.buffered != rs.buffered {
			fail(sn, "buffered")
		}
		if s.entryVerifying != rs.entryVerifying {
			fail(sn, "entryVerifying")
		}
		for pos := 0; pos < followers; pos++ {
			var got Order
			if s.votes != nil {
				got = s.votes[pos]
			}
			if want := rs.votes[pos]; got.From != want.From || string(got.Sig) != string(want.Sig) {
				fail(sn, "votes")
			}
			if (s.orderVerifying&(1<<pos) != 0) != rs.orderVerifying[pos] {
				fail(sn, "orderVerifying")
			}
		}
		var snap []byte
		if s.chk != nil {
			snap = s.chk.snap
		}
		if string(snap) != string(rs.snap) {
			fail(sn, "snapshot")
		}
	}
	for _, sn := range ref.sorted() {
		if rs := ref.m[sn]; rs.commit != nil {
			wantCommits = append(wantCommits, *rs.commit)
		}
		if rs := ref.m[sn]; rs.prepare != nil {
			wantPrepares = append(wantPrepares, *rs.prepare)
		}
	}
	commits, prepares := log.commits(), log.prepares()
	if len(commits) != len(wantCommits) || len(prepares) != len(wantPrepares) {
		t.Fatalf("seed %d step %d: walks hold %d commits and %d prepares, model %d and %d",
			seed, step, len(commits), len(prepares), len(wantCommits), len(wantPrepares))
	}
	for i := range commits {
		if commits[i].SN() != wantCommits[i].SN() {
			t.Fatalf("seed %d step %d: commit walk position %d is sn %d, model %d", seed, step, i, commits[i].SN(), wantCommits[i].SN())
		}
	}
	for i := range prepares {
		if prepares[i].SN() != wantPrepares[i].SN() {
			t.Fatalf("seed %d step %d: prepare walk position %d is sn %d, model %d", seed, step, i, prepares[i].SN(), wantPrepares[i].SN())
		}
	}
}
