package crypto

import "github.com/xft-consensus/xft/internal/wire"

// SigBatch accumulates independent signature-verification jobs whose
// payloads are built into pooled wire buffers, so assembling a batch on
// the hot path allocates nothing in steady state. Protocol replicas
// fill one per verification round (a batch of client requests, a
// certificate's orders) and call VerifyAll or VerifyEach, which release
// every buffer after the verdict: the Get/Put pairing lives here, and
// no buffer goes back to the pool while a job still reads it.
type SigBatch struct {
	jobs []VerifyJob
	bufs []*wire.Buf
}

// NewSigBatch returns a batch with capacity for n jobs.
func NewSigBatch(n int) *SigBatch {
	return &SigBatch{jobs: make([]VerifyJob, 0, n), bufs: make([]*wire.Buf, 0, n)}
}

// Add appends one job: payload writes the signed bytes into the pooled
// buffer it is handed and returns them, and the job verifies sig over
// them under id's key.
func (b *SigBatch) Add(id NodeID, sig Signature, payload func(*wire.Buf) []byte) {
	w := wire.Get()
	b.bufs = append(b.bufs, w)
	b.jobs = append(b.jobs, VerifyJob{ID: id, Data: payload(w), Sig: sig})
}

// VerifyAll scatters the jobs across pool and reports whether every
// one passed. The batch is spent afterwards.
func (b *SigBatch) VerifyAll(pool *Pool, suite Suite) bool {
	defer b.release()
	return pool.VerifyAll(suite, b.jobs)
}

// VerifyEach scatters the jobs across pool and reports each verdict.
// The batch is spent afterwards.
func (b *SigBatch) VerifyEach(pool *Pool, suite Suite) []bool {
	defer b.release()
	return pool.VerifyEach(suite, b.jobs)
}

func (b *SigBatch) release() {
	for _, w := range b.bufs {
		wire.Put(w)
	}
	b.bufs, b.jobs = nil, nil
}
