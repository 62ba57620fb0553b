package crypto

import (
	"testing"
)

func poolJobs(s Suite, n int) []VerifyJob {
	jobs := make([]VerifyJob, n)
	for i := range jobs {
		data := []byte{byte(i), byte(i >> 8)}
		jobs[i] = VerifyJob{ID: NodeID(i % 4), Data: data, Sig: s.Sign(NodeID(i%4), data)}
	}
	return jobs
}

func TestPoolVerifyAllAndEach(t *testing.T) {
	s := NewSimSuite(1)
	p := newPool(2)

	jobs := poolJobs(s, 17)
	if !p.VerifyAll(s, jobs) {
		t.Fatal("VerifyAll rejected valid jobs")
	}
	for _, v := range p.VerifyEach(s, jobs) {
		if !v {
			t.Fatal("VerifyEach rejected a valid job")
		}
	}

	// Corrupt one signature: VerifyAll fails, VerifyEach pinpoints it.
	jobs[5].Sig[0] ^= 0xff
	if p.VerifyAll(s, jobs) {
		t.Fatal("VerifyAll accepted a corrupted signature")
	}
	verdicts := p.VerifyEach(s, jobs)
	for i, v := range verdicts {
		if want := i != 5; v != want {
			t.Fatalf("VerifyEach[%d] = %v, want %v", i, v, want)
		}
	}
}

// TestPoolScatterMatchesVerify pins the chunk scatter behind VerifyAll
// and VerifyEach across the batch-size boundaries: one job, sizes below
// the algebraic batch, one chunk, and batches that split across
// workers. Verdicts match one-by-one Verify with the bad signature at
// the first, middle or last job; on valid input every signature is
// metered exactly once, and counted as batched from size 4 on.
func TestPoolScatterMatchesVerify(t *testing.T) {
	suite := NewEd25519Suite(8, 1)
	pools := []struct {
		name string
		pool *Pool
	}{{"shared", SharedPool()}, {"two-workers", newPool(2)}}
	for _, n := range []int{1, 2, 3, 4, 16, 33, 64} {
		valid, _ := batchFixture(t, suite, n)
		for _, bad := range []int{-1, 0, n / 2, n - 1} {
			jobs := append([]VerifyJob(nil), valid...)
			if bad >= 0 {
				jobs[bad].Sig = corrupt(jobs[bad].Sig)
			}
			want := make([]bool, n)
			wantAll := true
			for i, j := range jobs {
				want[i] = suite.Verify(j.ID, j.Data, j.Sig)
				wantAll = wantAll && want[i]
			}
			for _, pc := range pools {
				all := NewMeter(suite)
				if got := pc.pool.VerifyAll(all, jobs); got != wantAll {
					t.Errorf("%s n=%d bad=%d: VerifyAll = %v, want %v", pc.name, n, bad, got, wantAll)
				}
				each := NewMeter(suite)
				for i, got := range pc.pool.VerifyEach(each, jobs) {
					if got != want[i] {
						t.Errorf("%s n=%d bad=%d: VerifyEach[%d] = %v, want %v", pc.name, n, bad, i, got, want[i])
					}
				}
				if bad >= 0 {
					continue
				}
				wantBatched := uint64(0)
				if n >= 4 {
					wantBatched = uint64(n)
				}
				for call, m := range map[string]*Meter{"VerifyAll": all, "VerifyEach": each} {
					if c := m.Total(); c.Verifies != uint64(n) || c.BatchedVerifies != wantBatched {
						t.Errorf("%s n=%d %s: metered %d verifies, %d batched; want %d, %d",
							pc.name, n, call, c.Verifies, c.BatchedVerifies, n, wantBatched)
					}
				}
			}
		}
	}
}
