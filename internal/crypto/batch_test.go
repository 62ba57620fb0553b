package crypto

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"testing"
)

func batchFixture(t testing.TB, suite Suite, n int) ([]VerifyJob, [][]byte) {
	t.Helper()
	jobs := make([]VerifyJob, n)
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		id := NodeID(i % 8)
		payloads[i] = []byte(fmt.Sprintf("payload-%d", i))
		jobs[i] = VerifyJob{ID: id, Data: payloads[i], Sig: suite.Sign(id, payloads[i])}
	}
	return jobs, payloads
}

func corrupt(sig Signature) Signature {
	bad := append(Signature(nil), sig...)
	bad[1] ^= 0x55
	return bad
}

func TestBatchVerifierAllValid(t *testing.T) {
	suite := NewEd25519Suite(8, 1)
	jobs, _ := batchFixture(t, suite, 20)
	b := NewBatchVerifier(suite, len(jobs))
	for _, j := range jobs {
		b.Add(j.ID, j.Data, j.Sig)
	}
	if !b.VerifyAll() {
		t.Fatal("valid batch rejected")
	}
	for i, ok := range b.Verdicts() {
		if !ok {
			t.Errorf("verdict %d = false for a valid signature", i)
		}
	}
}

func TestBatchVerifierEmptyAndSingle(t *testing.T) {
	suite := NewEd25519Suite(8, 1)
	b := NewBatchVerifier(suite, 0)
	if !b.VerifyAll() {
		t.Error("empty batch rejected")
	}
	if got := b.Verdicts(); len(got) != 0 {
		t.Errorf("empty verdicts = %v", got)
	}
	jobs, _ := batchFixture(t, suite, 1)
	b = NewBatchVerifier(suite, 1)
	b.Add(jobs[0].ID, jobs[0].Data, jobs[0].Sig)
	if !b.VerifyAll() || !b.Verdicts()[0] {
		t.Error("size-1 valid batch rejected")
	}
	b = NewBatchVerifier(suite, 1)
	b.Add(jobs[0].ID, jobs[0].Data, corrupt(jobs[0].Sig))
	if b.VerifyAll() || b.Verdicts()[0] {
		t.Error("size-1 invalid batch accepted")
	}
}

// TestBatchVerifierBisection plants invalid signatures at assorted
// positions and checks the bisection pinpoints exactly the culprits.
func TestBatchVerifierBisection(t *testing.T) {
	suite := NewEd25519Suite(8, 1)
	for _, bad := range [][]int{{0}, {19}, {7}, {0, 19}, {3, 4, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}} {
		jobs, _ := batchFixture(t, suite, 20)
		isBad := make(map[int]bool)
		for _, i := range bad {
			isBad[i] = true
			jobs[i].Sig = corrupt(jobs[i].Sig)
		}
		b := NewBatchVerifier(suite, len(jobs))
		for _, j := range jobs {
			b.Add(j.ID, j.Data, j.Sig)
		}
		if b.VerifyAll() {
			t.Fatalf("batch with bad %v accepted", bad)
		}
		for i, ok := range b.Verdicts() {
			if ok == isBad[i] {
				t.Errorf("bad=%v: verdict[%d] = %v", bad, i, ok)
			}
		}
	}
}

// TestBatchVerifierWrongSigner checks that a signature valid under a
// different identity in the batch is still pinned to its claimed
// signer.
func TestBatchVerifierWrongSigner(t *testing.T) {
	suite := NewEd25519Suite(8, 1)
	data := []byte("cross-signed")
	b := NewBatchVerifier(suite, 4)
	b.Add(0, data, suite.Sign(0, data))
	b.Add(1, data, suite.Sign(2, data)) // signed by 2, claimed as 1
	b.Add(2, data, suite.Sign(2, data))
	b.Add(3, data, suite.Sign(3, data))
	want := []bool{true, false, true, true}
	for i, ok := range b.Verdicts() {
		if ok != want[i] {
			t.Errorf("verdict[%d] = %v, want %v", i, ok, want[i])
		}
	}
}

// TestBatchVerifierUnknownSigner: ids outside the key universe fail
// cleanly.
func TestBatchVerifierUnknownSigner(t *testing.T) {
	suite := NewEd25519Suite(4, 1)
	data := []byte("ghost")
	b := NewBatchVerifier(suite, 2)
	b.Add(0, data, suite.Sign(0, data))
	b.Add(99, data, suite.Sign(0, data))
	v := b.Verdicts()
	if !v[0] || v[1] {
		t.Errorf("verdicts = %v, want [true false]", v)
	}
}

// TestBatchVerifierSimSuiteFallback: SimSuite advertises batch support
// (so simulated verifications take the same code path — and meter
// accounting — as live Ed25519 batches) and still produces correct
// per-job verdicts through bisection.
func TestBatchVerifierSimSuiteFallback(t *testing.T) {
	suite := NewSimSuite(1)
	if !suiteBatches(suite) {
		t.Fatal("SimSuite does not claim batch support")
	}
	jobs, _ := batchFixture(t, suite, 6)
	jobs[2].Sig = corrupt(jobs[2].Sig)
	b := NewBatchVerifier(suite, len(jobs))
	for _, j := range jobs {
		b.Add(j.ID, j.Data, j.Sig)
	}
	if b.VerifyAll() {
		t.Error("invalid batch accepted")
	}
	for i, ok := range b.Verdicts() {
		if ok == (i == 2) {
			t.Errorf("verdict[%d] = %v", i, ok)
		}
	}
}

// TestMeterForwardsBatch: a Meter batches exactly when its inner suite
// does (Ed25519 and SimSuite both do), counting batched verifications
// both in the Verifies total and in the BatchedVerifies subset.
func TestMeterForwardsBatch(t *testing.T) {
	inner := NewEd25519Suite(8, 1)
	m := NewMeter(inner)
	if !suiteBatches(m) {
		t.Fatal("Meter over Ed25519Suite does not batch")
	}
	if !suiteBatches(NewMeter(NewSimSuite(1))) {
		t.Fatal("Meter over SimSuite does not batch")
	}
	jobs, _ := batchFixture(t, inner, 10)
	if !m.BatchVerify(jobs) {
		t.Error("valid batch rejected through meter")
	}
	if got := m.Total().Verifies; got != 10 {
		t.Errorf("metered verifies = %d, want 10", got)
	}
	if got := m.Total().BatchedVerifies; got != 10 {
		t.Errorf("metered batched verifies = %d, want 10", got)
	}
	if m.Verify(0, jobs[0].Data, jobs[0].Sig); m.Total().BatchedVerifies != 10 {
		t.Error("single Verify counted as batched")
	}
}

// TestPoolBatchRouting: Pool.VerifyAll/VerifyEach over a batch-capable
// suite give the same verdicts as one-by-one verification.
func TestPoolBatchRouting(t *testing.T) {
	suite := NewEd25519Suite(8, 1)
	for _, workers := range []int{1, 2} { // 1 = one chunk, on the caller
		pool := newPool(workers)
		jobs, _ := batchFixture(t, suite, 40)
		jobs[11].Sig = corrupt(jobs[11].Sig)
		jobs[37].Sig = corrupt(jobs[37].Sig)
		if pool.VerifyAll(suite, jobs) {
			t.Errorf("workers=%d: VerifyAll accepted invalid batch", workers)
		}
		for i, ok := range pool.VerifyEach(suite, jobs) {
			want := i != 11 && i != 37
			if ok != want {
				t.Errorf("workers=%d: VerifyEach[%d] = %v, want %v", workers, i, ok, want)
			}
		}
		valid, _ := batchFixture(t, suite, 21)
		if !pool.VerifyAll(suite, valid) {
			t.Errorf("workers=%d: VerifyAll rejected valid batch", workers)
		}
	}
}

// TestBatchVerifierPoolStress hammers the shared pool from many
// goroutines with mixed valid/invalid batches; run under -race it
// exercises the concurrent batch path end to end.
func TestBatchVerifierPoolStress(t *testing.T) {
	suite := NewEd25519Suite(16, 1)
	pool := SharedPool()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jobs, _ := batchFixture(t, suite, 24)
			badIdx := g % len(jobs)
			jobs[badIdx].Sig = corrupt(jobs[badIdx].Sig)
			for iter := 0; iter < 6; iter++ {
				verdicts := pool.VerifyEach(suite, jobs)
				for i, ok := range verdicts {
					if ok == (i == badIdx) {
						errs <- fmt.Sprintf("goroutine %d iter %d: verdict[%d]=%v", g, iter, i, ok)
						return
					}
				}
				if pool.VerifyAll(suite, jobs) {
					errs <- fmt.Sprintf("goroutine %d iter %d: VerifyAll accepted bad batch", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkBatchVerify is the acceptance benchmark: per-signature cost
// of one batch pass at the paper's batch size 20, versus sequential
// single verification, the standard library's and the suite's own. The
// ns/sig metrics of the sub-benchmarks are directly comparable.
func BenchmarkBatchVerify(b *testing.B) {
	suite := NewEd25519Suite(32, 1)
	jobs, _ := batchFixture(b, suite, 20)
	// Warm the parsed-key cache as a running replica's suite would be.
	if !suite.BatchVerify(jobs) {
		b.Fatal("fixture batch invalid")
	}
	b.Run("batch-20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !suite.BatchVerify(jobs) {
				b.Fatal("batch rejected")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(jobs)), "ns/sig")
	})
	// The sequential leg is the standard library's ed25519.Verify: the
	// batch is judged against stock one-at-a-time verification.
	b.Run("sequential-20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range jobs {
				if !ed25519.Verify(suite.PublicKey(jobs[j].ID), jobs[j].Data, jobs[j].Sig) {
					b.Fatal("signature rejected")
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(jobs)), "ns/sig")
	})
	// The single leg is the suite's own cofactored Verify, the path every
	// unbatched check takes. CI holds it near the standard library's
	// speed: sequential-20 / single must stay at or above 0.8.
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := &jobs[i%len(jobs)]
			if !suite.Verify(j.ID, j.Data, j.Sig) {
				b.Fatal("signature rejected")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sig")
	})
	b.Run("bisect-1-of-20-bad", func(b *testing.B) {
		bad := make([]VerifyJob, len(jobs))
		copy(bad, jobs)
		bad[13].Sig = corrupt(bad[13].Sig)
		out := make([]bool, len(bad))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batchVerdicts(suite, bad, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(jobs)), "ns/sig")
	})
}
