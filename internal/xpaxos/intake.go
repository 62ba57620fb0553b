package xpaxos

import (
	"sync/atomic"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// admissionQueue is the primary's bounded intake of pending client
// requests. The queue enforces two bounds — a global capacity and, per
// client, the session window — and sheds (drops, counting) everything
// beyond them; batch formation drains clients round-robin so one chatty
// or hostile client cannot starve the rest no matter how fast it
// submits. The requests wait in their client's session.pending.
//
// A shed request leaves no trace: the client's retransmission protocol
// re-offers it, and the per-client execution window (execMark) lets it
// execute even if a later timestamp from the same client slipped in
// first.
//
// Mutating methods run only on the replica event loop; the counters
// are atomic so IntakeStats may be read from any goroutine (the
// transport surfaces them via Node.Stats while the loop runs).
type admissionQueue struct {
	capTotal int
	total    int
	// ring is the round-robin drain order: clients with at least one
	// pending request, oldest-served first.
	ring []*session

	admitted        atomic.Uint64
	shed            atomic.Uint64
	queued          atomic.Int64
	forwardDropped  atomic.Uint64
	pressureDropped atomic.Uint64
}

// IntakeStats is a snapshot of request-intake health, exposed through
// Replica.IntakeStats and transport.Node.Stats. The type lives in smr
// so the transport stays protocol-agnostic.
type IntakeStats = smr.IntakeStats

// admit appends req to its client's queue, or sheds it when a bound is
// hit. The caller must not have recorded any bookkeeping for req yet:
// a shed request leaves no trace, so its retransmission is judged
// fresh.
func (q *admissionQueue) admit(s *session, req Request) bool {
	if q.total >= q.capTotal || len(s.pending) >= execWindowBits {
		q.shed.Add(1)
		return false
	}
	if len(s.pending) == 0 {
		q.ring = append(q.ring, s)
	}
	s.pending = append(s.pending, req)
	q.total++
	q.admitted.Add(1)
	q.queued.Store(int64(q.total))
	return true
}

// drain removes and returns up to max requests, one per client per
// round-robin turn, preserving per-client FIFO order.
func (q *admissionQueue) drain(max int) []Request {
	max = min(max, q.total)
	if max == 0 {
		return nil
	}
	out := make([]Request, 0, max)
	for len(out) < max && len(q.ring) > 0 {
		s := q.ring[0]
		out = append(out, s.pending[0])
		if len(s.pending) == 1 {
			s.pending = nil
			q.ring = q.ring[1:]
		} else {
			s.pending = s.pending[1:]
			// Rotate: the client rejoins the back of the ring.
			q.ring = append(q.ring[1:], s)
		}
	}
	q.total -= len(out)
	q.queued.Store(int64(q.total))
	return out
}

// verifyPressureDepth is the per-client queue depth from which
// admission checks a request's signature inline instead of in its
// batch. A queued request holds one of its client's execWindowBits
// session slots until its batch verifies, forged or not, so a spray of
// forgeries naming a victim could fill the victim's window; checking
// inline past this depth caps them at verifyPressureDepth slots, while
// a genuine deep queue passes. A request checked here is not checked
// again in its batch.
const verifyPressureDepth = 8

// intakeVerify is one drained slice of candidate requests whose client
// signatures are checked off-loop before batch assignment.
type intakeVerify struct {
	cand     []Request
	verdicts []bool
	done     bool
}

// ---------------------------------------------------------------------------
// Common case: request intake and batching (primary)
// ---------------------------------------------------------------------------

// onRequest handles a client request arriving at any active replica.
// Non-primaries forward to the primary (this also covers the
// client-broadcast path after a timeout).
func (r *Replica) onRequest(from smr.NodeID, req Request, forwarded bool) {
	if !r.isActive() {
		return
	}
	req.verified = forwarded && req.verified // onResend's check counts, a message's flag does not
	// Client-signature verification is deferred to batch formation,
	// where the whole batch's signatures scatter across the
	// verification pool in one call instead of costing the event loop
	// one serial public-key operation per arrival. Paths that act on a
	// request immediately still verify inline: an already-executed
	// request gets the cached reply (at-most-once). A not-yet-executed
	// timestamp inside the window (a shed request returning via
	// retransmission) falls through to normal admission.
	s := r.sessions[req.Client]
	if s != nil && s.executed(req.TS) {
		if c, ok := r.reply(req.Client, req.TS); ok && r.isPrimary() && r.verifyRequest(&req) {
			r.sendReply(req.Client, &req, c)
		}
		return
	}
	if !r.isPrimary() {
		if !forwarded && (s == nil || s.admits(req.TS)) {
			// Verify-before-forward: a follower authenticates the client
			// signature before relaying, so a forged-request blast is
			// absorbed here instead of being amplified into the
			// primary's intake (ROADMAP: request-intake hardening).
			// Arrivals accumulate while a verification batch is in
			// flight and scatter through the batch verifier together
			// (verifyForwards), so the per-request edge cost shrinks
			// under exactly the loads that need it; a lone forward
			// still verifies — and forwards — immediately.
			if len(r.fwdPending) >= r.cfg.IntakeQueueCap {
				// The unverified backlog is as bounded as the intake
				// queue; overflow is shed and counted like a forgery.
				r.intake.forwardDropped.Add(1)
				return
			}
			r.fwdPending = append(r.fwdPending, req)
			r.verifyForwards()
		}
		return
	}
	s = r.session(req.Client)
	q := r.request(s, req.TS)
	if q == nil {
		return // outside the client's window: refused
	}
	sigD := crypto.Hash(req.Sig)
	if q.queued == sigD {
		return // identical copy already in the pipeline
	}
	// A different copy for the same (client, ts): the queued one may be
	// unverified, so it could be a forgery racing the honest request.
	// Verify this copy inline — if it is genuine, queue it too (batch
	// formation discards the bad one); if not, ignore it without
	// letting it displace anything.
	if q.queued != (crypto.Digest{}) && !r.verifyRequest(&req) {
		return
	}
	// A deep queue verifies up front too (see verifyPressureDepth). A
	// request turned away leaves no marker: its retransmission after
	// the overload clears must be judged fresh, not as a duplicate.
	if len(s.pending) >= verifyPressureDepth && !req.verified && !r.verifyRequest(&req) {
		r.intake.pressureDropped.Add(1)
		r.release(s, q, false)
		return
	}
	if !r.intake.admit(s, req) {
		r.release(s, q, false)
		return
	}
	q.queued = sigD
	r.flushBatches(false)
}

// IntakeStats reports the replica's request-intake health: admission
// queue depth, cumulative admissions and sheds, and follower-side
// forward drops. Safe to call from any goroutine.
func (r *Replica) IntakeStats() IntakeStats {
	q := &r.intake
	return IntakeStats{
		Queued: int(q.queued.Load()), Admitted: q.admitted.Load(), Shed: q.shed.Load(),
		ForwardDropped: q.forwardDropped.Load(), PressureDropped: q.pressureDropped.Load(),
	}
}

// verifyRequest checks req's client signature and notes a pass in
// req.verified.
func (r *Replica) verifyRequest(req *Request) bool {
	w := wire.Get()
	req.verified = r.suite.Verify(crypto.NodeID(req.Client), req.appendSigPayload(w), req.Sig)
	wire.Put(w)
	return req.verified
}

// verifyForwards drains the follower's pending forward backlog through
// the crypto pipeline, one batch in flight at a time: requests
// arriving while a batch verifies accumulate into the next one, so
// bursts amortize across one batch-verifier pass with no added timer
// or latency for a lone request. Valid requests are relayed to the
// primary; invalid ones are shed and counted.
func (r *Replica) verifyForwards() {
	if r.fwdInFlight || len(r.fwdPending) == 0 {
		return
	}
	cand := r.fwdPending
	r.fwdPending = nil
	r.fwdInFlight = true
	b := crypto.NewSigBatch(len(cand))
	for i := range cand {
		b.Add(crypto.NodeID(cand[i].Client), cand[i].Sig, cand[i].appendSigPayload)
	}
	var verdicts []bool
	r.goCrypto("verify-forward",
		func() { verdicts = b.VerifyEach(crypto.SharedPool(), r.suite) },
		func() {
			r.fwdInFlight = false
			for i, ok := range verdicts {
				if !ok {
					r.intake.forwardDropped.Add(1)
					continue
				}
				r.env.Send(r.primary(), &MsgReplicate{Req: cand[i]})
			}
			r.verifyForwards()
		})
}

// inFlight returns the number of sequence numbers the replica has
// assigned but not yet executed — the occupied pipeline slots at the
// primary.
func (r *Replica) inFlight() int {
	if r.sn <= r.ex {
		return 0
	}
	return int(r.sn - r.ex)
}

// MaxInFlight returns the high-water mark of concurrently in-flight
// sequence numbers (exported for tests and stats).
func (r *Replica) MaxInFlight() int { return r.maxInFlight }

// pipelineKeepBusy is the in-flight depth below which a partial batch
// ships immediately: with the primary and follower stages overlapped,
// two outstanding batches keep both busy, so holding a partial back to
// fill it would idle a stage. At or above this depth, partial batches
// wait for more requests (amortizing per-batch signatures) until the
// batch timer bounds the delay.
const pipelineKeepBusy = 2

// flushBatches drains pending requests into sequence-numbered
// proposals, keeping at most PipelineWindow batches in flight — where
// "in flight" counts both assigned sequence numbers and batches still
// in signature verification (intakeQ). Batch formation is adaptive: a
// full batch is dispatched whenever the window has room; a partial
// batch is dispatched immediately while the pipeline is hungry (fewer
// than pipelineKeepBusy batches in flight), and otherwise waits to
// fill until the batch timer forces it out (force=true). Under load,
// backpressure grows batches naturally: requests accumulate while the
// window is busy and drain into one proposal when a slot frees.
func (r *Replica) flushBatches(force bool) {
	if r.status != statusNormal || !r.isPrimary() {
		return
	}
	for r.intake.total > 0 && r.inFlight()+len(r.intakeQ) < r.cfg.PipelineWindow {
		if r.intake.total < r.cfg.BatchSize && !force && r.inFlight()+len(r.intakeQ) >= pipelineKeepBusy {
			break // partial batch and both stages are busy: let it fill
		}
		// Drain round-robin across clients: under overload every
		// client lands requests in each batch instead of the queue
		// head's owner monopolizing it.
		r.dispatchIntake(r.intake.drain(r.cfg.BatchSize))
		force = false
	}
	// Anything left waits for more requests, a commit that frees a
	// window slot, or the batch timer.
	if r.intake.total > 0 && !r.batchTimerSet {
		r.batchTimer = r.env.SetTimer(r.cfg.BatchTimeout, "batch")
		r.batchTimerSet = true
	}
}

// dispatchIntake submits the client-signature checks that admission
// deferred — so the whole batch verifies in one parallel scatter — and
// queues the batch for in-order retirement. While the batch verifies
// off-loop, the loop is free to assemble the next one: verification of
// batch k+1 overlaps signing and assembly of batch k.
func (r *Replica) dispatchIntake(cand []Request) {
	iv := &intakeVerify{cand: cand, verdicts: make([]bool, len(cand))}
	r.intakeQ = append(r.intakeQ, iv)
	b := crypto.NewSigBatch(len(cand))
	var todo []int // the candidates admission did not verify
	for i := range cand {
		if iv.verdicts[i] = cand[i].verified; !cand[i].verified {
			todo = append(todo, i)
			b.Add(crypto.NodeID(cand[i].Client), cand[i].Sig, cand[i].appendSigPayload)
		}
	}
	r.goCrypto("verify-intake",
		func() {
			for j, ok := range b.VerifyEach(crypto.SharedPool(), r.suite) {
				iv.verdicts[todo[j]] = ok
			}
		},
		func() {
			iv.done = true
			r.retireIntake()
		})
}

// retireIntake assigns sequence numbers to verified intake batches in
// dispatch order. Completions may arrive out of order; retiring only
// the done prefix keeps batch order equal to drain order, so a
// client's pipelined requests never reorder. An invalid request is
// dropped and its queued marker cleared, so a later valid
// retransmission from the same client is not mistaken for a duplicate.
func (r *Replica) retireIntake() {
	retired := false
	for len(r.intakeQ) > 0 && r.intakeQ[0].done {
		iv := r.intakeQ[0]
		r.intakeQ = r.intakeQ[1:]
		retired = true
		reqs := make([]Request, 0, len(iv.cand))
		for i, ok := range iv.verdicts {
			if ok {
				reqs = append(reqs, iv.cand[i])
			} else if s := r.sessions[iv.cand[i].Client]; s != nil {
				// Clear the marker only if it is this copy's: a valid
				// copy queued alongside keeps its own mark.
				q := &s.slots[iv.cand[i].TS%execWindowBits]
				if q.ts == iv.cand[i].TS && q.queued == crypto.Hash(iv.cand[i].Sig) {
					q.queued = crypto.Digest{}
				}
				r.release(s, q, false)
			}
		}
		if len(reqs) > 0 {
			r.assignBatch(Batch{Reqs: reqs})
		}
	}
	if retired {
		// Retirement freed window slots; refill them.
		r.flushBatches(false)
	}
}
