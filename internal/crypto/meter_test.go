package crypto

import (
	"testing"
	"time"
)

// TestCostModelModern: the preset discounts batched verifications and
// spreads verify work across workers for elapsed time, while the
// default model prices batched and single verifications identically
// and stays strictly serial.
func TestCostModelModern(t *testing.T) {
	def := DefaultCostModel()
	mod := CostModelModern(4)

	serial := Counts{Verifies: 20}
	batched := Counts{Verifies: 20, BatchedVerifies: 20}

	if serial.Cost(def) != batched.Cost(def) {
		t.Error("default model prices batched verifications differently")
	}
	if serial.Elapsed(def) != serial.Cost(def) {
		t.Error("default model is not serial")
	}
	if got, want := batched.Cost(mod), 20*15*time.Microsecond; got != want {
		t.Errorf("modern batched cost = %v, want %v", got, want)
	}
	if got, want := batched.Elapsed(mod), batched.Cost(mod)/4; got != want {
		t.Errorf("modern batched elapsed = %v, want %v (4-way pool)", got, want)
	}
	// Parallelism never exceeds the number of signatures.
	two := Counts{Verifies: 2, BatchedVerifies: 2}
	if got, want := two.Elapsed(mod), two.Cost(mod)/2; got != want {
		t.Errorf("2-signature elapsed = %v, want %v", got, want)
	}
	// Signing stays serial under every model.
	sign := Counts{Signs: 3}
	if sign.Elapsed(mod) != sign.Cost(mod) {
		t.Error("modern model parallelized signing")
	}
	// Mixed windows: only the verify share divides.
	mixed := Counts{Signs: 1, Verifies: 8, BatchedVerifies: 8}
	wantMixed := mixed.Cost(mod) - 8*15*time.Microsecond + 8*15*time.Microsecond/4
	if got := mixed.Elapsed(mod); got != wantMixed {
		t.Errorf("mixed elapsed = %v, want %v", got, wantMixed)
	}
}

// TestCountsAddCarriesBatched: Add must accumulate the batched subset.
func TestCountsAddCarriesBatched(t *testing.T) {
	var c Counts
	c.Add(Counts{Verifies: 5, BatchedVerifies: 5})
	c.Add(Counts{Verifies: 2})
	if c.Verifies != 7 || c.BatchedVerifies != 5 {
		t.Fatalf("counts = %+v, want Verifies 7 / Batched 5", c)
	}
}
