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
// deadlock even if callers submit from inside worker context. Its
// workers live for the process.
type Pool struct {
	tasks   chan func()
	workers int
}

// minAlgebraicBatch is the size from which one multi-scalar batch pass
// (see BatchSuite) beats scattering single verifications, even on one
// core.
const minAlgebraicBatch = 4

// batchChunkTarget is the minimum per-worker chunk when a large batch
// splits across the pool: below this the shared-doubling amortization
// lost to splitting outweighs the extra parallelism.
const batchChunkTarget = 16

// newPool starts a pool with the given number of workers.
func newPool(workers int) *Pool {
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

// VerifyAll reports whether every job verifies under s. Jobs are
// independent, so they run concurrently, and once one fails the chunks
// not yet started are skipped; the call returns once all verdicts are
// in. A batch that fits in one chunk verifies on the caller, which
// keeps the common path allocation-free.
//
// The Suite must be safe for concurrent Verify calls; Ed25519Suite and
// SimSuite are immutable after construction and Meter counts with
// atomics, so every suite in this repository qualifies.
func (p *Pool) VerifyAll(s Suite, jobs []VerifyJob) bool {
	size, batch := p.plan(s, len(jobs))
	if size >= len(jobs) {
		return verifyAll(s, batch, jobs)
	}
	var failed atomic.Bool
	p.scatter(len(jobs), size, func(lo, hi int) {
		if !failed.Load() && !verifyAll(s, batch, jobs[lo:hi]) {
			failed.Store(true)
		}
	})
	return !failed.Load()
}

// VerifyEach reports every job's verdict individually. Unlike
// VerifyAll it never short-circuits: use it where invalid items are
// filtered out rather than failing the whole batch (e.g. request
// intake at the primary).
func (p *Pool) VerifyEach(s Suite, jobs []VerifyJob) []bool {
	out := make([]bool, len(jobs))
	size, batch := p.plan(s, len(jobs))
	if size >= len(jobs) {
		verifyEach(s, batch, jobs, out)
		return out
	}
	p.scatter(len(jobs), size, func(lo, hi int) {
		verifyEach(s, batch, jobs[lo:hi], out[lo:hi])
	})
	return out
}

// plan returns the chunk size in which n jobs are scattered and whether
// each chunk is checked in one batch pass. A suite that batches gets
// one chunk per worker, but never chunks smaller than batchChunkTarget
// (splitting erodes the shared-doubling amortization that makes batch
// verification fast); otherwise every job is its own chunk.
func (p *Pool) plan(s Suite, n int) (size int, batch bool) {
	if !suiteBatches(s) || n < minAlgebraicBatch {
		return 1, false
	}
	chunks := max(1, min(n/batchChunkTarget, p.workers))
	return (n + chunks - 1) / chunks, true
}

// scatter runs part over consecutive [lo, hi) chunks of size covering
// n jobs and returns once every chunk is done. Each chunk goes to a
// worker, or runs on the caller when the workers are saturated.
func (p *Pool) scatter(n, size int, part func(lo, hi int)) {
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		wg.Add(1)
		task := func() {
			defer wg.Done()
			part(lo, hi)
		}
		select {
		case p.tasks <- task:
		default:
			task() // workers saturated: caller runs
		}
	}
	wg.Wait()
}

// verifyAll checks one chunk, in one batch pass or one job at a time
// up to the first failure.
func verifyAll(s Suite, batch bool, jobs []VerifyJob) bool {
	if batch {
		return s.(BatchSuite).BatchVerify(jobs)
	}
	for i := range jobs {
		if !s.Verify(jobs[i].ID, jobs[i].Data, jobs[i].Sig) {
			return false
		}
	}
	return true
}

// verifyEach fills out with one chunk's verdicts, bisecting a failed
// batch pass or checking one job at a time.
func verifyEach(s Suite, batch bool, jobs []VerifyJob, out []bool) {
	if batch {
		batchVerdicts(s, jobs, out)
		return
	}
	for i := range jobs {
		out[i] = s.Verify(jobs[i].ID, jobs[i].Data, jobs[i].Sig)
	}
}

// sharedPool is the process-wide pool, created on first use. Its
// workers park on an empty channel and cost nothing while idle, and
// sharing one pool keeps the goroutine count bounded no matter how
// many replicas a test or simulation spins up.
var sharedPool = sync.OnceValue(func() *Pool { return newPool(runtime.GOMAXPROCS(0)) })

// SharedPool returns the process-wide verification pool (GOMAXPROCS
// workers), creating it on first use.
func SharedPool() *Pool { return sharedPool() }
