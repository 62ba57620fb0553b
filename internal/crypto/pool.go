package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// VerifyJob is one independent signature verification: does sig
// authenticate data under node id's key?
type VerifyJob struct {
	ID   NodeID
	Data []byte
	Sig  Signature
}

// Pool verifies batches of independent signatures across a fixed set
// of worker goroutines. The common case of every replication protocol
// here verifies many unrelated signatures back to back (a batch of
// client requests, a quorum certificate); fanning those out across
// cores removes the dominant serial cost from the hot path.
//
// A Pool is safe for concurrent use by any number of callers; each
// VerifyAll call blocks until its own jobs are done. When every worker
// is busy, submissions degrade gracefully: the calling goroutine runs
// the job inline instead of queueing unboundedly, so a Pool can never
// deadlock even if callers submit from inside worker context.
type Pool struct {
	tasks   chan func()
	workers int
	// mu guards closed against the submit path: submitters hold the
	// read side while sending, Close takes the write side before
	// closing the channel, so a send on a closed channel is impossible
	// and every queued task is drained before the workers exit.
	mu     sync.RWMutex
	closed bool
}

// minParallelJobs is the batch size below which scatter/gather
// overhead exceeds the win; smaller batches verify inline.
const minParallelJobs = 2

// minAlgebraicBatch is the size from which one multi-scalar batch pass
// (see BatchSuite) beats scattering single verifications, even on one
// core.
const minAlgebraicBatch = 4

// batchChunkTarget is the minimum per-worker chunk when a large batch
// splits across the pool: below this the shared-doubling amortization
// lost to splitting outweighs the extra parallelism.
const batchChunkTarget = 16

// NewPool starts a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func(), 4*workers), workers: workers}
	for i := 0; i < workers; i++ {
		go func() {
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Close stops the workers once queued tasks drain. It is idempotent,
// and jobs submitted after (or concurrently with) Close run inline on
// the caller.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
}

// submit hands task to a worker, or runs it inline when the workers
// are saturated or the pool is closed.
func (p *Pool) submit(task func()) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		task()
		return
	}
	select {
	case p.tasks <- task:
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		task() // workers saturated: caller runs
	}
}

// VerifyAll reports whether every job verifies under s. Jobs are
// independent, so they run concurrently; the call returns once all
// verdicts are in. A nil pool (or a batch too small to be worth
// scattering) verifies serially, which keeps the zero-config path
// allocation-free and deterministic.
//
// The Suite must be safe for concurrent Verify calls; Ed25519Suite and
// SimSuite are immutable after construction and Meter counts with
// atomics, so every suite in this repository qualifies.
func (p *Pool) VerifyAll(s Suite, jobs []VerifyJob) bool {
	if suiteBatches(s) && len(jobs) >= minAlgebraicBatch {
		bs := s.(BatchSuite)
		nc := p.batchChunks(len(jobs))
		if nc == 1 {
			return bs.BatchVerify(jobs)
		}
		var failed atomic.Bool
		var wg sync.WaitGroup
		size := (len(jobs) + nc - 1) / nc
		for start := 0; start < len(jobs); start += size {
			end := start + size
			if end > len(jobs) {
				end = len(jobs)
			}
			chunk := jobs[start:end]
			wg.Add(1)
			p.submit(func() {
				defer wg.Done()
				if !failed.Load() && !bs.BatchVerify(chunk) {
					failed.Store(true)
				}
			})
		}
		wg.Wait()
		return !failed.Load()
	}
	if p == nil || len(jobs) < minParallelJobs {
		for i := range jobs {
			if !s.Verify(jobs[i].ID, jobs[i].Data, jobs[i].Sig) {
				return false
			}
		}
		return true
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i := range jobs {
		j := &jobs[i]
		p.submit(func() {
			defer wg.Done()
			if failed.Load() {
				return // a sibling already failed; skip the work
			}
			if !s.Verify(j.ID, j.Data, j.Sig) {
				failed.Store(true)
			}
		})
	}
	wg.Wait()
	return !failed.Load()
}

// VerifyEach reports every job's verdict individually. Unlike
// VerifyAll it never short-circuits: use it where invalid items are
// filtered out rather than failing the whole batch (e.g. request
// intake at the primary).
func (p *Pool) VerifyEach(s Suite, jobs []VerifyJob) []bool {
	out := make([]bool, len(jobs))
	if suiteBatches(s) && len(jobs) >= minAlgebraicBatch {
		nc := p.batchChunks(len(jobs))
		if nc == 1 {
			batchVerdicts(s, jobs, out)
			return out
		}
		var wg sync.WaitGroup
		size := (len(jobs) + nc - 1) / nc
		for start := 0; start < len(jobs); start += size {
			end := start + size
			if end > len(jobs) {
				end = len(jobs)
			}
			start, end := start, end
			wg.Add(1)
			p.submit(func() {
				defer wg.Done()
				batchVerdicts(s, jobs[start:end], out[start:end])
			})
		}
		wg.Wait()
		return out
	}
	if p == nil || len(jobs) < minParallelJobs {
		for i := range jobs {
			out[i] = s.Verify(jobs[i].ID, jobs[i].Data, jobs[i].Sig)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i := range jobs {
		i := i
		j := &jobs[i]
		p.submit(func() {
			defer wg.Done()
			out[i] = s.Verify(j.ID, j.Data, j.Sig)
		})
	}
	wg.Wait()
	return out
}

// GoVerifyAll runs VerifyAll off the caller's goroutine and invokes
// done(ok) when every verdict is in. done runs on the spawned
// goroutine, never on the caller. This is the standalone asynchronous
// submission surface for code that owns its own completion routing;
// the replicas instead submit through smr.Env.Defer (whose work
// closures call the blocking Pool methods) because their completions
// must re-enter the event loop as smr.Async events under the runtime's
// delivery guarantees. Safe on a nil pool — the verification then runs
// serially, but still off the caller.
func (p *Pool) GoVerifyAll(s Suite, jobs []VerifyJob, done func(ok bool)) {
	go func() { done(p.VerifyAll(s, jobs)) }()
}

// GoVerifyEach is the asynchronous form of VerifyEach: done receives
// the per-job verdicts. Same threading contract as GoVerifyAll.
func (p *Pool) GoVerifyEach(s Suite, jobs []VerifyJob, done func(verdicts []bool)) {
	go func() { done(p.VerifyEach(s, jobs)) }()
}

// GoSign produces a signature off the caller's goroutine. Signing is
// inherently serial (one key, one message), so the job does not occupy
// pool workers — it runs on its own goroutine, overlapping both the
// caller and any in-flight verification.
func (p *Pool) GoSign(s Suite, id NodeID, data []byte, done func(sig Signature)) {
	go func() { done(s.Sign(id, data)) }()
}

// batchChunks returns how many chunks a batch of n jobs should split
// into: one per worker, but never chunks smaller than batchChunkTarget
// (splitting erodes the shared-doubling amortization that makes batch
// verification fast), and exactly one for a nil pool.
func (p *Pool) batchChunks(n int) int {
	if p == nil {
		return 1
	}
	c := n / batchChunkTarget
	if c > p.workers {
		c = p.workers
	}
	if c < 1 {
		c = 1
	}
	return c
}

// sharedPool is the process-wide default pool, created on first use.
// It is intentionally never closed: its workers park on an empty
// channel and cost nothing while idle, and sharing one pool keeps the
// goroutine count bounded no matter how many replicas a test or
// simulation spins up.
var (
	sharedOnce sync.Once
	shared     *Pool
)

// SharedPool returns the process-wide verification pool (GOMAXPROCS
// workers), creating it on first use.
func SharedPool() *Pool {
	sharedOnce.Do(func() { shared = NewPool(0) })
	return shared
}
