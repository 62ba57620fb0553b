package xpaxos

import (
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// execWindowBits is the width of a client's session: a replica keeps
// state for this many consecutive timestamps of one client, so a client
// may have no more in flight (ClientConfig.Window, Client.CanInvoke).
const execWindowBits = 64

// execMark is one client's at-most-once execution state: the highest
// executed timestamp plus a bitmap of the execWindowBits most recent
// timestamps at or below it. An open-loop client keeps a window of
// requests outstanding and overload shedding can admit timestamp n+1
// before a shed n returns via retransmission; the bitmap lets the late
// one execute on arrival. Requests inside a client's window are
// concurrent by construction, so executing them in arrival order is a
// valid serialization, and the mark is derived purely from the
// committed log, so replicas stay deterministic.
type execMark struct {
	last uint64 // highest executed timestamp; 0 = none
	bits uint64 // bit i set => (last - i) executed; bit 0 is last itself
}

// below reports whether ts lies at or below the window's lower edge.
func (m execMark) below(ts uint64) bool { return m.last >= ts && m.last-ts >= execWindowBits }

// executed reports whether ts was already executed. Timestamps below
// the window count as executed: they are either ancient duplicates or
// a previous client incarnation (TSBase jumps).
func (m execMark) executed(ts uint64) bool {
	return m.last != 0 && ts <= m.last && (m.below(ts) || m.bits>>(m.last-ts)&1 == 1)
}

// record marks ts executed.
func (m execMark) record(ts uint64) execMark {
	if ts > m.last {
		if shift := ts - m.last; m.last == 0 || shift >= execWindowBits {
			m.bits = 1
		} else {
			m.bits = m.bits<<shift | 1
		}
		m.last = ts
	} else if !m.below(ts) {
		m.bits |= 1 << (m.last - ts)
	}
	return m
}

// cachedReply remembers the reply to an executed request, for
// at-most-once execution and retransmission.
type cachedReply struct {
	TS   uint64
	SN   smr.SeqNum
	View smr.View
	Rep  []byte
}

// session is everything a replica keeps about one client; the sessions
// are all of its per-client and per-request state. A session covers
// execWindowBits consecutive timestamps: below the window a timestamp
// counts as executed and has no state, inside it slot
// ts mod execWindowBits holds everything known about (client, ts).
// Replica.request is the one rule that opens a slot and Replica.release
// the one place that frees it, so whatever clients and peers name there
// is one session per client that executed a request plus one per
// request open for any other. The mark and the cached replies are
// replicated — a function of the executed log alone, serialized into
// checkpoints; everything else is this replica's own.
type session struct {
	client smr.NodeID
	execMark
	slots [execWindowBits]request
	open  int // slots holding an open request
	// pending is the client's FIFO in the primary's admission queue.
	pending []Request
	opener  smr.NodeID // one more than the replica whose ⟨reply-sign⟩ created the session
}

// request is a session slot. Its open half belongs to timestamp ts,
// from the first admitted message naming it until it is executed and
// nobody watches it any more; reply is that of the slot's newest
// executed timestamp: ts or, while ts awaits execution, one window
// below it — still inside the snapshot's window.
type request struct {
	ts uint64 // the open request's timestamp; 0 = none
	// queued is the signature digest of the copy in the primary's
	// pipeline, zero for none. Intake verification is deferred to batch
	// formation, so a forged copy may get there first; the digest keeps
	// it from suppressing the client's own.
	queued crypto.Digest
	watch  *watchState
	// signing marks our own reply-sign as being signed off-loop, and bit
	// i of verifying that of the group's i-th member as being checked.
	signing   bool
	verifying uint64
	reply     cachedReply
}

// session returns client's session, creating it if need be.
func (r *Replica) session(client smr.NodeID) *session {
	s := r.sessions[client]
	if s == nil {
		s = &session{client: client}
		r.sessions[client] = s
	}
	return s
}

// knownClients returns, in ascending order, the clients with an
// executed request: the sessions a checkpoint carries.
func (r *Replica) knownClients() []smr.NodeID {
	var ids []smr.NodeID
	for id, s := range r.sessions {
		if s.execMark != (execMark{}) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// reply returns the cached reply of (client, ts).
func (r *Replica) reply(client smr.NodeID, ts uint64) (cachedReply, bool) {
	if s := r.sessions[client]; s != nil && ts != 0 && s.slots[ts%execWindowBits].reply.TS == ts {
		return s.slots[ts%execWindowBits].reply, true
	}
	return cachedReply{}, false
}

// replies returns the session's cached replies in ascending timestamp
// order.
func (s *session) replies() []cachedReply {
	var out []cachedReply
	for d := min(s.last, execWindowBits); d > 0; d-- {
		if q := &s.slots[(s.last-d+1)%execWindowBits]; q.reply.TS == s.last-d+1 {
			out = append(out, q.reply)
		}
	}
	return out
}

// admits reports whether a request of the client's at ts may be taken
// up: ts is not below the window, and neither a window or more above
// nor in the slot of a request the client itself asked us to watch that
// has yet to execute. While that one waits, executing ts would push it
// out of the window — its reply gone before the watch could hand it
// over.
func (s *session) admits(ts uint64) bool {
	for i := range s.slots {
		o := &s.slots[i]
		if s.open > 0 && o.watch != nil && o.watch.started && o.ts != ts && !s.executed(o.ts) &&
			(ts > o.ts && ts-o.ts >= execWindowBits || i == int(ts%execWindowBits)) {
			return false
		}
	}
	return ts != 0 && !s.below(ts)
}

// request is the admission rule: it returns s's slot for ts, opened for
// ts, or nil when the session does not admit ts. A slot open for
// another timestamp is taken over — the rule left only one that is
// executed, or that the client never vouched for.
func (r *Replica) request(s *session, ts uint64) *request {
	q := &s.slots[ts%execWindowBits]
	if q.ts == ts {
		return q
	}
	if !s.admits(ts) {
		r.release(s, nil, false)
		return nil
	}
	s.open++ // before the occupant goes, so the session is never seen empty
	r.release(s, q, true)
	q.ts = ts
	return q
}

// release frees what q (if not nil) may hold no longer: a reply below
// the window, the queue mark of an executed request, and the open
// request itself once it is below the window, or nothing — queue mark,
// watch, verification marks — holds it open, or, with drop, regardless.
// A session left with no executed, open or queued request is deleted.
func (r *Replica) release(s *session, q *request, drop bool) {
	if q != nil && s.below(q.reply.TS) {
		q.reply = cachedReply{}
	}
	if q != nil && s.executed(q.ts) {
		q.queued = crypto.Digest{}
	}
	if q != nil && q.ts != 0 && (drop || s.below(q.ts) || q.queued == crypto.Digest{} && q.watch == nil && q.verifying == 0) {
		if q.watch != nil {
			r.env.CancelTimer(q.watch.timer)
			delete(r.watchTimers, q.watch.timer)
		}
		*q = request{reply: q.reply}
		s.open--
	}
	if s.execMark == (execMark{}) && s.open == 0 && len(s.pending) == 0 && r.sessions[s.client] == s {
		delete(r.sessions, s.client)
	}
}

// recordExecution marks c.TS executed with reply c and returns its
// slot; the window slides up to it and what falls out below is dropped.
func (r *Replica) recordExecution(s *session, c cachedReply) *request {
	slid := s.last
	s.execMark = s.record(c.TS)
	for ts, n := s.last, min(s.last-slid, execWindowBits); n > 0; ts, n = ts-1, n-1 {
		r.release(s, &s.slots[ts%execWindowBits], false)
	}
	q := &s.slots[c.TS%execWindowBits]
	q.reply = c
	return q
}

// pruneSessions drops what the sessions may no longer hold once the
// replica's state moved under them: what a restored snapshot executed
// or left below the window, and — on leaving a view — what the view's
// pipeline had in flight: completions submitted under it never land,
// and requests batched into its prepares may not survive the view
// change, so only the unbatched backlog keeps its queue marks (a stale
// one would make the primary drop retransmissions for ever).
func (r *Replica) pruneSessions(leavingView bool) {
	if leavingView {
		r.replySignVerifying = 0
	}
	for _, s := range r.sessions {
		if leavingView && s.open == 0 && len(s.pending) == 0 {
			continue // nothing of the view's here
		}
		for i := range s.slots {
			q := &s.slots[i]
			if leavingView {
				q.queued, q.signing, q.verifying = crypto.Digest{}, false, 0
			}
			r.release(s, q, false)
		}
		for i := 0; leavingView && i < len(s.pending); i++ {
			if q := r.request(s, s.pending[i].TS); q != nil {
				q.queued = crypto.Hash(s.pending[i].Sig)
			}
		}
	}
}
