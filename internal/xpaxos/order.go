package xpaxos

import (
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// assignBatch gives the batch the next sequence number and starts the
// common-case protocol (Section 4.2). The sequence number is claimed
// on the spot — later batches may be dispatched meanwhile — while the
// order signature is produced off-loop; the prepare ships when it
// completes. Followers buffer out-of-order arrivals (slot.buffered), so
// signing completions need not preserve dispatch order.
func (r *Replica) assignBatch(batch Batch) {
	r.sn++
	if f := r.inFlight(); f > r.maxInFlight {
		r.maxInFlight = f
	}
	sn := r.sn
	o := &Order{Kind: r.primaryKind(), BatchD: batch.Digest(), SN: sn, View: r.view, From: r.id}
	r.goCrypto("sign-order",
		func() { signOrderInto(r.suite, o) },
		func() {
			s := r.slot(sn)
			if s == nil {
				return // the log was wiped while signing (fault injection)
			}
			entry := &PrepareEntry{Batch: batch, Primary: *o}
			s.prepare = entry
			r.preView = r.view
			if r.t == 1 {
				r.env.Send(r.followers()[0], &MsgCommitReq{Entry: *entry})
				return
			}
			// Figure 2a: prepare to all followers.
			for _, f := range r.followers() {
				r.env.Send(f, &MsgPrepare{Entry: *entry})
			}
		})
}

// ---------------------------------------------------------------------------
// Common case, t = 1 (Algorithm 1)
// ---------------------------------------------------------------------------

// onCommitReq is the t = 1 follower receiving ⟨req, m0⟩.
func (r *Replica) onCommitReq(from smr.NodeID, m *MsgCommitReq) {
	if r.t == 1 {
		r.admitPrepareEntry(from, m.Entry, r.drainFollowerT1)
	}
}

// admitPrepareEntry runs the follower's acceptance of a primary's
// entry in two halves: the structural binding (kind, sender, batch
// digest) checks synchronously, then the entry's signatures — the
// primary's order plus every client request — verify off-loop as one
// parallel scatter. A valid entry is buffered in its slot and drain
// processes it in sequence order, so verification of entry sn+1
// overlaps execution and signing of entry sn.
func (r *Replica) admitPrepareEntry(from smr.NodeID, entry PrepareEntry, drain func()) {
	if r.status != statusNormal || r.followerPos(r.id) < 0 || entry.View() != r.view || from != r.primary() {
		return // only a follower takes entries, and only from its view's primary
	}
	e := &entry
	sn := e.SN()
	s := r.slot(sn)
	if s == nil || sn <= r.sn || s.buffered != nil || s.entryVerifying {
		return // outside the log window, already processed, buffered, or in verification
	}
	if !r.checkPrepareEntryShape(e) {
		r.suspect(r.view) // invalid message from an active replica
		return
	}
	b := crypto.NewSigBatch(len(e.Batch.Reqs) + 1)
	b.Add(crypto.NodeID(e.Primary.From), e.Primary.Sig, e.Primary.appendSigPayload)
	for i := range e.Batch.Reqs {
		req := &e.Batch.Reqs[i]
		b.Add(crypto.NodeID(req.Client), req.Sig, req.appendSigPayload)
	}
	s.entryVerifying = true
	var ok bool
	r.goCrypto("verify-prepare",
		func() { ok = b.VerifyAll(crypto.SharedPool(), r.suite) },
		func() {
			s := r.slot(sn)
			if s != nil {
				s.entryVerifying = false
			}
			if !ok {
				r.suspect(r.view)
				return
			}
			if s == nil || sn <= r.sn || s.buffered != nil {
				return // superseded while verifying (checkpoint adoption)
			}
			s.buffered = e
			drain()
		})
}

// drainFollowerT1 processes buffered entries in sequence order.
func (r *Replica) drainFollowerT1() {
	for {
		s := r.slot(r.sn + 1)
		if s == nil || s.buffered == nil {
			return
		}
		e := s.buffered
		s.buffered = nil
		r.sn++
		sn := r.sn
		// Execute immediately (the follower runs ahead of the primary,
		// Section 4.2.2) and sign m1 over the reply root. Execution and
		// the local log updates happen now, in sequence order; only the
		// m1 signature is produced off-loop, so the next entry's
		// execution overlaps this one's signing. The commit entry — and
		// everything that needs it — materializes when the signature
		// lands.
		tss, reps := r.applyBatch(&e.Batch, sn, e.Primary.View)
		digs := make([]crypto.Digest, len(reps))
		for i, rep := range reps {
			digs[i] = crypto.Hash(rep)
		}
		root := ReplyRoot(tss, digs)
		s.prepare = &PrepareEntry{Batch: e.Batch, Primary: e.Primary}
		r.ex = sn
		r.maybeCheckpoint(sn)
		m1 := &Order{Kind: KindCommit, BatchD: e.Primary.BatchD, SN: sn, View: r.view, From: r.id, RepRoot: root}
		r.goCrypto("sign-order",
			func() { signOrderInto(r.suite, m1) },
			func() {
				s := r.slot(sn)
				if s == nil {
					// A checkpoint stabilized past sn while signing; the
					// primary necessarily assembled sn already, so the
					// commit is moot and storing it would resurrect a
					// truncated log entry.
					return
				}
				entry := &CommitEntry{Batch: e.Batch, Primary: e.Primary, Commits: []Order{*m1}}
				s.commit = entry
				r.logCommitEntry(entry)
				r.notifyCommit(entry)
				r.env.Send(r.primary(), &MsgCommit{Order: *m1})
				r.lazyReplicate(entry)
			})
	}
}

// ---------------------------------------------------------------------------
// Common case, t ≥ 2 (Algorithm 2)
// ---------------------------------------------------------------------------

// onPrepare is a follower receiving the primary's ⟨req, prepare⟩.
func (r *Replica) onPrepare(from smr.NodeID, m *MsgPrepare) {
	if r.t >= 2 {
		r.admitPrepareEntry(from, m.Entry, r.drainFollowerPrepares)
	}
}

func (r *Replica) drainFollowerPrepares() {
	for {
		s := r.slot(r.sn + 1)
		if s == nil || s.buffered == nil {
			return
		}
		e := s.buffered
		s.buffered = nil
		r.sn++
		sn := r.sn
		s.prepare = e
		r.preView = r.view
		// The commit signature is produced off-loop; the vote is
		// recorded and broadcast when it lands. The drain keeps going
		// meanwhile, so consecutive entries' commit signing overlaps.
		c := &Order{Kind: KindCommit, BatchD: e.Primary.BatchD, SN: sn, View: r.view, From: r.id}
		r.goCrypto("sign-order",
			func() { signOrderInto(r.suite, c) },
			func() {
				s := r.slot(sn)
				if s == nil {
					return // checkpoint stabilized past sn while signing
				}
				r.addCommitVote(s, *c)
				r.sendActives(&MsgCommit{Order: *c})
				r.tryAssemble(sn)
			})
	}
}

// onCommit handles a commit order: for t = 1 this is m1 at the
// primary; for t ≥ 2 it is a follower's commit at any active replica.
// The signature check runs off-loop; the vote is applied when it
// lands, so a stream of commits for consecutive sequence numbers
// verifies while earlier ones assemble and execute.
func (r *Replica) onCommit(from smr.NodeID, m *MsgCommit) {
	if r.status != statusNormal || !r.isActive() {
		return
	}
	o := m.Order
	pos := r.followerPos(from)
	if o.View != r.view || o.From != from || pos < 0 {
		return
	}
	s := r.slot(o.SN)
	if s == nil {
		return // outside the log window: neither stored nor verified
	}
	verifying := uint64(1) << pos
	if s.votes != nil && s.votes[pos].Sig != nil {
		return // this follower's vote is already recorded
	}
	if s.orderVerifying&verifying != 0 {
		return // a copy is already in verification
	}
	s.orderVerifying |= verifying
	var valid bool
	r.goCrypto("verify-order",
		func() { valid = verifyOrder(r.suite, &o) },
		func() {
			s := r.slot(o.SN)
			if s != nil {
				s.orderVerifying &^= verifying
			}
			if !valid {
				r.suspect(r.view)
				return
			}
			if s == nil {
				return // checkpoint stabilized past this entry meanwhile
			}
			r.addCommitVote(s, o)
			r.tryAssemble(o.SN)
		})
}

// addCommitVote records a current-group follower's commit order in s.
func (r *Replica) addCommitVote(s *slot, o Order) {
	if s.votes == nil {
		s.votes = make([]Order, r.t)
	}
	s.votes[r.followerPos(o.From)] = o
}

// tryAssemble completes CommitLog[sn] once the prepare entry and all t
// follower commits with matching digests are present. An entry
// committed in an older view may be superseded by the re-commit of the
// new view.
func (r *Replica) tryAssemble(sn smr.SeqNum) {
	s := r.slot(sn)
	if s == nil || s.prepare == nil || s.votes == nil {
		return
	}
	pe := s.prepare
	if s.commit != nil && s.commit.View() >= pe.View() {
		return
	}
	for i := range s.votes {
		o := &s.votes[i]
		if o.Sig == nil || o.BatchD != pe.Primary.BatchD || o.View != pe.Primary.View {
			return
		}
	}
	// The votes sit in follower order, which is the certificate's.
	entry := &CommitEntry{Batch: pe.Batch, Primary: pe.Primary, Commits: s.votes}
	s.commit = entry
	s.votes = nil
	r.logCommitEntry(entry)
	r.notifyCommit(entry)
	if sn <= r.ex {
		// Re-commit of an already-executed entry (view change):
		// answer the waiting clients from the reply cache.
		r.resendCommittedReplies(entry)
	} else {
		r.tryExecute()
	}
	if r.t >= 2 {
		r.lazyReplicate(entry)
	}
}

// ---------------------------------------------------------------------------
// Entry verification
// ---------------------------------------------------------------------------

// checkPrepareEntryShape checks everything about a primary's entry
// that does not require public-key operations: order kind, sender role
// and digest binding. The signatures — independent, so they scatter
// across the verification pool — are checked by admitPrepareEntry's
// off-loop half.
func (r *Replica) checkPrepareEntryShape(e *PrepareEntry) bool {
	if e.Primary.Kind != r.primaryKind() {
		return false
	}
	if e.Primary.From != Primary(r.n, r.t, e.Primary.View) {
		return false
	}
	return e.Batch.Digest() == e.Primary.BatchD
}

// verifyCommitEntry validates a full commit certificate: the primary's
// order plus t follower commits of the entry's view, all binding the
// same batch digest. Used on lazy replication and view-change paths.
func (r *Replica) verifyCommitEntry(e *CommitEntry) bool {
	v := e.Primary.View
	if e.Primary.Kind != r.primaryKind() || e.Primary.From != Primary(r.n, r.t, v) {
		return false
	}
	if e.Batch.Digest() != e.Primary.BatchD {
		return false
	}
	if len(e.Commits) != r.t {
		return false
	}
	seen := make(map[smr.NodeID]bool, r.t)
	for i := range e.Commits {
		o := &e.Commits[i]
		if o.Kind != KindCommit || o.View != v || o.SN != e.Primary.SN || o.BatchD != e.Primary.BatchD {
			return false
		}
		if followerIndex(r.n, r.t, v, o.From) < 0 || seen[o.From] {
			return false
		}
		seen[o.From] = true
	}
	// Structure is sound. The same entries recur across consecutive
	// view changes (every view-change message re-hauls the unstable
	// tail), so memoize the signature verdict by a digest over the
	// authenticated content: the t+1 signatures cover every field the
	// structural checks above did not already pin down, so two entries
	// with equal keys carry identical, equally-valid evidence.
	key := commitEntryKey(e)
	if verdict, ok := r.ceCache[key]; ok {
		return verdict
	}
	b := crypto.NewSigBatch(r.t + 1)
	b.Add(crypto.NodeID(e.Primary.From), e.Primary.Sig, e.Primary.appendSigPayload)
	for i := range e.Commits {
		o := &e.Commits[i]
		b.Add(crypto.NodeID(o.From), o.Sig, o.appendSigPayload)
	}
	ok := b.VerifyAll(crypto.SharedPool(), r.suite)
	if len(r.ceCache) >= ceCacheMax {
		r.ceCache = make(map[crypto.Digest]bool, ceCacheMax/4)
	}
	r.ceCache[key] = ok
	return ok
}

// ceCacheMax bounds the commit-entry verification cache.
const ceCacheMax = 1 << 13

// commitEntryKey digests a commit entry's authenticated content for
// the verification cache.
func commitEntryKey(e *CommitEntry) crypto.Digest {
	w := wire.Get()
	w.U64(uint64(e.Primary.SN)).U64(uint64(e.Primary.View)).I64(int64(e.Primary.From))
	w.Bytes(e.Primary.BatchD[:]).Bytes(e.Primary.RepRoot[:]).Bytes(e.Primary.Sig)
	for i := range e.Commits {
		o := &e.Commits[i]
		w.I64(int64(o.From)).Bytes(o.RepRoot[:]).Bytes(o.Sig)
	}
	d := crypto.Hash(w.Done())
	wire.Put(w)
	return d
}
