package xpaxos

import (
	"cmp"
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// watchState tracks a retransmitted request being monitored by the
// active replicas (Algorithm 4).
type watchState struct {
	s     *session // the session whose slot the watch hangs off
	timer smr.TimerID
	// sigs are the signed replies collected so far, one per signer.
	sigs    []ReplySig
	started bool
	// view records the view the timer was (re)armed in: an expiry only
	// suspects that same view — a watch that straddles a view change
	// re-arms instead, giving the new synchronous group a full timeout
	// to make progress.
	view smr.View
	// ex records the replica's execution mark at (re)arm time. An
	// expiry while execution has advanced past it means the group is
	// draining a backlog, not stalled: the watch re-arms instead of
	// suspecting, up to maxWatchGraces times. Without the grace, a
	// large client population makes every view change metastable — the
	// new group can never clear the accumulated requests within one
	// timeout, watches expire, the view is suspected, and the cycle
	// repeats. The cap keeps censorship detectable: a primary that
	// commits everyone else's requests but starves this one still gets
	// suspected after a bounded number of graces.
	ex smr.SeqNum
	// graces counts progress-based re-arms.
	graces int
}

// maxStrangers caps, per signer, the clients a replica knows of only
// through that signer's ⟨reply-sign⟩ records.
const maxStrangers = 4

// maxReplySignVerifying bounds concurrent off-loop reply-sign
// verifications; what exceeds it is dropped (the retransmission
// protocol re-offers anything that mattered).
const maxReplySignVerifying = 256

// maxWatchGraces bounds how many times a watch defers to execution
// progress before suspecting the view anyway.
const maxWatchGraces = 8

// signed reports whether the watch holds id's signed reply.
func (w *watchState) signed(id smr.NodeID) bool {
	return slices.ContainsFunc(w.sigs, func(rs ReplySig) bool { return rs.From == id })
}

// watch returns the watch of s's slot q, opening it — and arming its
// timer — if q has none.
func (r *Replica) watch(s *session, q *request) *watchState {
	if q.watch == nil {
		q.watch = &watchState{s: s, view: r.view, ex: r.ex}
		r.armWatch(q)
	}
	return q.watch
}

func (r *Replica) armWatch(q *request) {
	q.watch.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
	r.watchTimers[q.watch.timer] = q
}

// ---------------------------------------------------------------------------
// Retransmission handling (Algorithm 4)
// ---------------------------------------------------------------------------

// onResend handles a client's retransmission broadcast.
func (r *Replica) onResend(from smr.NodeID, req Request) {
	if !r.isActive() || r.status != statusNormal {
		return
	}
	if !r.verifyRequest(&req) || req.Client != from {
		return
	}
	s := r.session(req.Client)
	q := r.request(s, req.TS)
	if q == nil {
		return
	}
	r.watch(s, q).started = true // a real client retransmission arms the suspicion timer
	// Forward to the primary (it may never have seen the request).
	if !r.isPrimary() {
		r.env.Send(r.primary(), &MsgReplicate{Req: req})
	} else {
		r.onRequest(from, req, true)
	}
	// If we already executed it, contribute our signed reply now.
	if c, ok := r.reply(req.Client, req.TS); ok && q.watch != nil {
		r.broadcastReplySign(q, c)
	}
}

// broadcastReplySign signs and sends our reply record for the watched
// request q, unless it is already out or being signed.
func (r *Replica) broadcastReplySign(q *request, c cachedReply) {
	if q.watch.signed(r.id) || q.signing {
		return
	}
	q.signing = true
	rs := &ReplySig{From: r.id, SN: c.SN, View: c.View, TS: q.ts, Client: q.watch.s.client, RepDigest: crypto.Hash(c.Rep)}
	r.goCrypto("sign-replysign",
		func() { rs.Sig = r.suite.Sign(crypto.NodeID(r.id), rs.SigPayload()) },
		func() {
			q.signing = false
			r.sendActives(&MsgReplySign{R: *rs})
			r.applyReplySign(*rs) // our own signature needs no verification
		})
}

// onReplySign receives a peer's signed reply record. It is dropped
// before its signature is looked at unless we are active, its sender is
// a member of our group and the request's session admits it — for at
// most maxStrangers clients per sender that nobody else told us of. The
// signature then verifies off-loop, once per (request, signer) at a
// time, and the record is applied when the check lands.
func (r *Replica) onReplySign(from smr.NodeID, m *MsgReplySign) {
	rs := m.R
	pos := slices.Index(r.group, from)
	if rs.From != from || pos < 0 || !r.isActive() {
		return
	}
	s := r.sessions[rs.Client]
	if s == nil {
		strangers := 0
		for _, o := range r.sessions {
			if o.opener == from+1 && o.execMark == (execMark{}) {
				strangers++
			}
		}
		if strangers >= maxStrangers {
			return
		}
		s = r.session(rs.Client)
		s.opener = from + 1
	}
	q := r.request(s, rs.TS)
	if q == nil {
		return
	}
	if (q.watch != nil && q.watch.signed(from)) || q.verifying>>pos&1 == 1 || r.replySignVerifying >= maxReplySignVerifying {
		r.release(s, q, false) // recorded, in flight, or the path is saturated: shed
		return
	}
	q.verifying |= 1 << pos
	r.replySignVerifying++
	var valid bool
	r.goCrypto("verify-replysign",
		func() { valid = r.suite.Verify(crypto.NodeID(rs.From), rs.SigPayload(), rs.Sig) },
		func() {
			r.replySignVerifying--
			if q.ts == rs.TS {
				q.verifying &^= 1 << pos
			}
			if valid {
				r.applyReplySign(rs)
			} else {
				r.release(s, q, false)
			}
		})
}

// applyReplySign collects authenticated signed replies; with t+1
// matching ones the bundle goes to the client. Receiving a signed
// reply without a local watch opens a passive watch (it collects
// signatures but its expiry never suspects the view), so signature
// quorums assemble even when the client's retransmission only reached
// part of the group.
func (r *Replica) applyReplySign(rs ReplySig) {
	s := r.sessions[rs.Client]
	if s == nil {
		return
	}
	q := r.request(s, rs.TS)
	if q == nil {
		return
	}
	w := r.watch(s, q)
	if w.signed(rs.From) {
		return
	}
	w.sigs = append(w.sigs, rs)
	// Contribute our own signature if we executed the request and have
	// not spoken up yet. Our signature lands asynchronously, so fall
	// through and check the quorum with what is already here — the
	// t+1th record, whoever supplies it, finishes the watch.
	if rs.From != r.id {
		if c, ok := r.reply(rs.Client, rs.TS); ok {
			r.broadcastReplySign(q, c)
		}
	}
	r.tryFinishWatch(s, q, rs.RepDigest)
}

// tryFinishWatch sends the signed-reply bundle once t+1 distinct
// matching signatures are collected and we hold the reply payload.
func (r *Replica) tryFinishWatch(s *session, q *request, digest crypto.Digest) {
	if q.watch == nil {
		return // our own signature landed meanwhile and finished it
	}
	matching := make([]ReplySig, 0, r.t+1)
	for _, rs := range q.watch.sigs {
		if rs.RepDigest == digest {
			matching = append(matching, rs)
		}
	}
	if len(matching) < r.t+1 {
		return
	}
	slices.SortFunc(matching, func(a, b ReplySig) int { return cmp.Compare(a.From, b.From) })
	c, okRep := r.reply(s.client, q.ts)
	if !okRep || crypto.Hash(c.Rep) != digest {
		return // we lack the payload; another active will answer
	}
	r.env.Send(s.client, &MsgSignedReply{Rep: c.Rep, Replies: matching[:r.t+1]})
	r.release(s, q, true) // answered: the watch was all that held the executed request open
}

// onWatchExpired: the request made no progress in time — suspect the
// view and tell the client (Algorithm 4 lines 8–10). Passive watches
// (opened only to aggregate signatures) expire silently, and a watch
// armed under an older view re-arms rather than condemning a view that
// has not had a full timeout to serve the request.
func (r *Replica) onWatchExpired(q *request) {
	w := q.watch
	switch {
	case !w.started:
	case w.view < r.view || r.status == statusViewChange:
		w.view = r.view
		w.ex = r.ex
		r.armWatch(q)
		return
	case r.ex > w.ex && w.graces < maxWatchGraces:
		// The group is executing — the request is queued behind a
		// backlog, not lost. Grant another timeout instead of tearing
		// the view down (see watchState.ex).
		w.ex = r.ex
		w.graces++
		r.armWatch(q)
		return
	}
	q.watch = nil
	r.release(w.s, q, false)
	if w.started {
		sus := r.makeSuspect(r.view)
		r.env.Send(w.s.client, sus)
		r.suspect(r.view)
	}
}

// makeSuspect builds our signed suspect message for view v.
func (r *Replica) makeSuspect(v smr.View) *MsgSuspect {
	m := &MsgSuspect{View: v, From: r.id}
	m.Sig = r.suite.Sign(crypto.NodeID(r.id), m.SigPayload())
	return m
}
