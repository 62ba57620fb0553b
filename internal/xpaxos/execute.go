package xpaxos

import (
	"slices"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// tryExecute applies contiguous committed entries. The t = 1 follower
// never goes through here for fresh entries (it executes in
// drainFollowerT1); the t = 1 primary and all t ≥ 2 actives do.
func (r *Replica) tryExecute() {
	for {
		s := r.slot(r.ex + 1)
		if s == nil || s.commit == nil {
			break
		}
		entry, sn := s.commit, r.ex+1
		tss, reps := r.applyBatch(&entry.Batch, sn, entry.View())
		r.ex = sn
		r.maybeCheckpoint(sn)
		r.sendReplies(entry, sn, tss, reps)
		if r.status != statusNormal {
			// Synchronous mode can suspect inline (reply-root mismatch);
			// stop executing into a view change like the classic path.
			return
		}
	}
	// Execution advanced, freeing pipeline slots: the primary drains the
	// pending queue into the next proposals.
	r.flushBatches(false)
}

// sendReplies builds and sends the client replies for a freshly
// executed entry. The hashing, Merkle proofs and per-client MACs —
// the last crypto residue on the execution hot path — run off the Step
// loop through goCrypto; the sends (and, for t = 1, the reply-root
// divergence verdict) apply when the work lands. A view change
// in-between drops the completion: clients recover the lost replies
// via retransmission (resendCommittedReplies / Algorithm 4), exactly
// as if the replies had been lost on the wire.
func (r *Replica) sendReplies(entry *CommitEntry, sn smr.SeqNum, tss []uint64, reps [][]byte) {
	primary := r.isPrimary()
	if r.t == 1 && !primary {
		return // the t = 1 follower's answer travels inside the primary's reply
	}
	view := r.view
	out := make([]smr.Message, len(entry.Batch.Reqs))
	rootOK := true
	r.goCrypto("mac-reply",
		func() {
			if r.t >= 2 {
				for i := range out {
					out[i] = r.groupReply(primary, entry.Batch.Reqs[i].Client, sn, view, tss[i], reps[i])
				}
				return
			}
			digs := make([]crypto.Digest, len(reps))
			for i, rep := range reps {
				digs[i] = crypto.Hash(rep)
			}
			// Check the follower's reply digest (Section 4.2.2) before
			// answering clients: a mismatch means one of us diverged.
			m1 := entry.Commits[0]
			root, proofs := crypto.MerkleTree(ReplyLeaves(tss, digs))
			if m1.RepRoot != root {
				rootOK = false
				return
			}
			for i := range out {
				rep := &MsgReply{
					From: r.id, SN: sn, View: view, TS: tss[i], Rep: reps[i],
					Proof: proofs[i], FollowerCommit: &m1,
				}
				rep.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(entry.Batch.Reqs[i].Client), rep.MACPayload())
				out[i] = rep
			}
		},
		func() {
			if !rootOK {
				r.suspect(r.view)
				return
			}
			for i, rep := range out {
				r.env.Send(entry.Batch.Reqs[i].Client, rep)
			}
		})
}

// groupReply builds one client's t ≥ 2 answer (Figure 2a): the primary
// sends the reply, a follower its digest.
func (r *Replica) groupReply(primary bool, client smr.NodeID, sn smr.SeqNum, v smr.View, ts uint64, rep []byte) smr.Message {
	if primary {
		m := &MsgReply{From: r.id, SN: sn, View: v, TS: ts, Rep: rep}
		m.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(client), m.MACPayload())
		return m
	}
	m := &MsgReplyDigest{From: r.id, SN: sn, View: v, TS: ts, RepDigest: crypto.Hash(rep)}
	m.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(client), m.MACPayload())
	return m
}

// applyBatch executes the batch's requests in order with at-most-once
// semantics, returning per-request timestamps and replies. Requests
// whose timestamp was already executed return the cached reply
// (deterministic across replicas).
func (r *Replica) applyBatch(b *Batch, sn smr.SeqNum, v smr.View) (tss []uint64, reps [][]byte) {
	r.vcConsec = 0 // fresh execution: the current view is productive
	tss = make([]uint64, len(b.Reqs))
	reps = make([][]byte, len(b.Reqs))
	for i := range b.Reqs {
		req := &b.Reqs[i]
		tss[i] = req.TS
		s := r.session(req.Client)
		if s.executed(req.TS) {
			if c, ok := r.reply(req.Client, req.TS); ok {
				reps[i] = c.Rep
			}
			// A marker may still exist if the request was re-queued and
			// re-batched around its own execution (retransmission racing
			// a commit); the executed window owns dedupe now, so clear
			// it here too or it leaks forever.
			r.release(s, &s.slots[req.TS%execWindowBits], false)
			continue
		}
		reps[i] = r.app.Execute(req.Op)
		c := cachedReply{TS: req.TS, SN: sn, View: v, Rep: reps[i]}
		q := r.recordExecution(s, c)
		// Whoever watches the request gets our signed reply, and the
		// queued marker has done its job.
		if q.ts == req.TS && q.watch != nil {
			r.broadcastReplySign(q, c)
		}
		r.release(s, q, false)
	}
	return tss, reps
}

// sendReply re-sends a cached reply to a duplicate request. For t = 1
// it attaches the follower commit from the commit log; the reply's
// (SN, View) must come from that entry — after a view change the entry
// is re-committed in a newer view than the one cached at execution.
func (r *Replica) sendReply(client smr.NodeID, req *Request, c cachedReply) {
	rep := MsgReply{From: r.id, SN: c.SN, View: c.View, TS: c.TS, Rep: c.Rep}
	if r.t == 1 {
		s := r.slot(c.SN)
		if s == nil || s.commit == nil {
			return // truncated by a checkpoint; client will retransmit
		}
		entry := s.commit
		m1 := entry.Commits[0]
		rep.SN, rep.View = entry.SN(), entry.View()
		rep.FollowerCommit = &m1
		idx := slices.IndexFunc(entry.Batch.Reqs, func(rq Request) bool { return rq.Client == client && rq.TS == c.TS })
		if idx < 0 {
			return
		}
		_, proofs := crypto.MerkleTree(ReplyLeaves(r.collectReplyDigests(&entry.Batch)))
		rep.Proof = proofs[idx]
	}
	rep.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(client), rep.MACPayload())
	r.env.Send(client, &rep)
}

// resendCommittedReplies pushes replies for an entry that was
// re-committed in a new view (its requests executed earlier): clients
// blocked since before the view change unblock without waiting for a
// retransmission round trip.
func (r *Replica) resendCommittedReplies(entry *CommitEntry) {
	for i := range entry.Batch.Reqs {
		req := &entry.Batch.Reqs[i]
		c, ok := r.reply(req.Client, req.TS)
		if !ok {
			continue
		}
		if r.t == 1 {
			if r.isPrimary() {
				c.SN = entry.SN()
				r.sendReply(req.Client, req, c)
			}
			continue
		}
		r.env.Send(req.Client, r.groupReply(r.isPrimary(), req.Client, entry.SN(), entry.View(), c.TS, c.Rep))
	}
}

// notifyCommit reports each request of a committed entry to the
// observer.
func (r *Replica) notifyCommit(e *CommitEntry) {
	if r.cfg.Observer == nil {
		return
	}
	for i := range e.Batch.Reqs {
		req := &e.Batch.Reqs[i]
		r.cfg.Observer(smr.Committed{
			Replica: r.id, View: e.View(), Seq: e.SN(),
			Digest: req.Digest(), Client: req.Client, ClientTS: req.TS,
			First: i == 0,
		})
	}
}
