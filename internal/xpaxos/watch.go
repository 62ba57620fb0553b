package xpaxos

import (
	"cmp"
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

type watchKey struct {
	Client smr.NodeID
	TS     uint64
}

// watchState tracks a retransmitted request being monitored by the
// active replicas (Algorithm 4).
type watchState struct {
	key     watchKey
	timer   smr.TimerID
	sigs    map[smr.NodeID]ReplySig
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

// maxWatchGraces bounds how many times a watch defers to execution
// progress before suspecting the view anyway.
const maxWatchGraces = 8

// replySigID identifies one replica's signed-reply record for one
// watched request (in-flight verification dedupe).
type replySigID struct {
	Client smr.NodeID
	TS     uint64
	From   smr.NodeID
}

// maxReplySignVerifying bounds concurrent off-loop reply-sign
// verifications; floods beyond it are dropped (the retransmission
// protocol re-offers anything that mattered).
const maxReplySignVerifying = 256

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
	key := watchKey{Client: req.Client, TS: req.TS}
	w, exists := r.watches[key]
	if !exists {
		w = &watchState{key: key, sigs: make(map[smr.NodeID]ReplySig), view: r.view, ex: r.ex}
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watches[key] = w
		r.watchTimers[w.timer] = key
	}
	w.started = true // a real client retransmission arms the suspicion timer
	// Forward to the primary (it may never have seen the request).
	if !r.isPrimary() {
		r.env.Send(r.primary(), &MsgReplicate{Req: req})
	} else {
		r.onRequest(from, req, true)
	}
	// If we already executed it, contribute our signed reply now.
	if c, ok := r.replies.get(req.Client, req.TS); ok {
		r.broadcastReplySign(req.Client, req.TS, c)
	}
}

// onExecutedWatched fires when a watched request executes.
func (r *Replica) onExecutedWatched(client smr.NodeID, ts uint64, sn smr.SeqNum, v smr.View, rep []byte) {
	key := watchKey{Client: client, TS: ts}
	if _, ok := r.watches[key]; !ok {
		return
	}
	r.broadcastReplySign(client, ts, cachedReply{TS: ts, SN: sn, View: v, Rep: rep})
}

func (r *Replica) broadcastReplySign(client smr.NodeID, ts uint64, c cachedReply) {
	key := watchKey{Client: client, TS: ts}
	if w, ok := r.watches[key]; ok {
		if _, mine := w.sigs[r.id]; mine {
			return // already contributed
		}
	}
	if r.replySigning[key] {
		return // our signature is already being produced off-loop
	}
	r.replySigning[key] = true
	rs := &ReplySig{From: r.id, SN: c.SN, View: c.View, TS: ts, Client: client, RepDigest: crypto.Hash(c.Rep)}
	r.goCrypto("sign-replysign",
		func() { rs.Sig = r.suite.Sign(crypto.NodeID(r.id), rs.SigPayload()) },
		func() {
			delete(r.replySigning, key)
			r.sendActives(&MsgReplySign{R: *rs})
			r.applyReplySign(*rs) // our own signature needs no verification
		})
}

// onReplySign receives a peer's signed reply record: the signature
// verifies off-loop, and the record is applied when the check lands.
// In-flight checks are deduped per (request, signer) and capped in
// total — this path is driven by unsolicited peer messages, so it must
// not let a flood pin one verification per message in flight.
func (r *Replica) onReplySign(from smr.NodeID, m *MsgReplySign) {
	rs := m.R
	if rs.From != from {
		return
	}
	if w, ok := r.watches[watchKey{Client: rs.Client, TS: rs.TS}]; ok {
		if _, dup := w.sigs[rs.From]; dup {
			return // already recorded; skip the verification
		}
	}
	id := replySigID{Client: rs.Client, TS: rs.TS, From: rs.From}
	if r.replySignVerifying[id] || len(r.replySignVerifying) >= maxReplySignVerifying {
		return // a copy is in flight, or the path is saturated: shed
	}
	r.replySignVerifying[id] = true
	var valid bool
	r.goCrypto("verify-replysign",
		func() { valid = r.suite.Verify(crypto.NodeID(rs.From), rs.SigPayload(), rs.Sig) },
		func() {
			delete(r.replySignVerifying, id)
			if valid {
				r.applyReplySign(rs)
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
	key := watchKey{Client: rs.Client, TS: rs.TS}
	w, ok := r.watches[key]
	if !ok {
		w = &watchState{key: key, sigs: make(map[smr.NodeID]ReplySig), view: r.view, ex: r.ex}
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watches[key] = w
		r.watchTimers[w.timer] = key
	}
	if _, dup := w.sigs[rs.From]; dup {
		return
	}
	w.sigs[rs.From] = rs
	// Contribute our own signature if we executed the request and have
	// not spoken up yet. Our signature lands asynchronously, so fall
	// through and check the quorum with what is already here — the
	// t+1th record, whoever supplies it, finishes the watch.
	if rs.From != r.id {
		if _, mine := w.sigs[r.id]; !mine {
			if c, okRep := r.replies.get(rs.Client, rs.TS); okRep {
				r.broadcastReplySign(rs.Client, rs.TS, c)
			}
		}
	}
	r.tryFinishWatch(w, rs.RepDigest)
}

// tryFinishWatch sends the signed-reply bundle once t+1 distinct
// matching signatures are collected and we hold the reply payload.
func (r *Replica) tryFinishWatch(w *watchState, digest crypto.Digest) {
	if r.watches[w.key] != w {
		return // the watch already finished (or was cleared)
	}
	matching := make([]ReplySig, 0, r.t+1)
	for _, s := range w.sigs {
		if s.RepDigest == digest {
			matching = append(matching, s)
		}
	}
	if len(matching) < r.t+1 {
		return
	}
	slices.SortFunc(matching, func(a, b ReplySig) int { return cmp.Compare(a.From, b.From) })
	c, okRep := r.replies.get(w.key.Client, w.key.TS)
	if !okRep || crypto.Hash(c.Rep) != digest {
		return // we lack the payload; another active will answer
	}
	r.env.Send(w.key.Client, &MsgSignedReply{Rep: c.Rep, Replies: matching[:r.t+1]})
	r.clearWatch(w.key)
}

func (r *Replica) clearWatch(key watchKey) {
	if w, ok := r.watches[key]; ok {
		r.env.CancelTimer(w.timer)
		delete(r.watchTimers, w.timer)
		delete(r.watches, key)
	}
}

// onWatchExpired: the request made no progress in time — suspect the
// view and tell the client (Algorithm 4 lines 8–10). Passive watches
// (opened only to aggregate signatures) expire silently, and a watch
// armed under an older view re-arms rather than condemning a view that
// has not had a full timeout to serve the request.
func (r *Replica) onWatchExpired(key watchKey) {
	w, ok := r.watches[key]
	if !ok {
		return
	}
	if !w.started {
		delete(r.watches, key)
		return
	}
	if w.view < r.view || r.status == statusViewChange {
		w.view = r.view
		w.ex = r.ex
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watchTimers[w.timer] = key
		return
	}
	if r.ex > w.ex && w.graces < maxWatchGraces {
		// The group is executing — the request is queued behind a
		// backlog, not lost. Grant another timeout instead of tearing
		// the view down (see watchState.ex).
		w.ex = r.ex
		w.graces++
		w.timer = r.env.SetTimer(r.cfg.RequestTimeout, "watch")
		r.watchTimers[w.timer] = key
		return
	}
	delete(r.watches, key)
	sus := r.makeSuspect(r.view)
	r.env.Send(key.Client, sus)
	r.suspect(r.view)
}

// makeSuspect builds our signed suspect message for view v.
func (r *Replica) makeSuspect(v smr.View) *MsgSuspect {
	m := &MsgSuspect{View: v, From: r.id}
	m.Sig = r.suite.Sign(crypto.NodeID(r.id), m.SigPayload())
	return m
}
