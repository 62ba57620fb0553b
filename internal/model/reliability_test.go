package model

import (
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

// TestSection6Example1 checks the paper's Example 1: p_benign=0.9999,
// p_correct=p_synchrony=0.999 → CFT 3 nines, XPaxos 5, BFT 7.
func TestSection6Example1(t *testing.T) {
	p := FromNines(4, 3, 3)
	cft, xft, bft := NinesOfConsistency(1, p)
	if cft != 3 || xft != 5 || bft != 7 {
		t.Fatalf("Example 1 nines = CFT %d / XPaxos %d / BFT %d, want 3/5/7", cft, xft, bft)
	}
}

// TestSection6Example2: p_benign=p_synchrony=0.9999, p_correct=0.999 →
// XPaxos 6, BFT 7, CFT 3.
func TestSection6Example2(t *testing.T) {
	p := FromNines(4, 3, 4)
	cft, xft, bft := NinesOfConsistency(1, p)
	if cft != 3 || xft != 6 || bft != 7 {
		t.Fatalf("Example 2 nines = CFT %d / XPaxos %d / BFT %d, want 3/6/7", cft, xft, bft)
	}
}

// TestSection6AvailabilityExample: p_available=0.999, p_benign=0.99999
// → XPaxos 5 nines of availability, CFT 4.
func TestSection6AvailabilityExample(t *testing.T) {
	p := availParams(3, 5)
	cft, xft, _ := NinesOfAvailability(1, p)
	if cft != 4 || xft != 5 {
		t.Fatalf("availability example = CFT %d / XPaxos %d, want 4/5", cft, xft)
	}
}

// TestTable5SpotChecks verifies individual cells of Appendix D
// Table 5 (consistency, t=1).
func TestTable5SpotChecks(t *testing.T) {
	cases := []struct {
		benign, correct, sync     int
		wantCFT, wantXFT, wantBFT int
	}{
		{3, 2, 2, 2, 3, 5},
		{3, 2, 3, 2, 4, 5},   // min(sync,correct)=2 → 2+2=4
		{4, 2, 2, 3, 4, 7},   // sync=correct=2, benign>sync → correct-1=1 → 3+1=4
		{4, 3, 3, 3, 5, 7},   // Example 1
		{4, 3, 4, 3, 6, 7},   // Example 2
		{5, 4, 4, 4, 7, 9},   // sync=correct=4, benign>sync → 4+3=7
		{5, 4, 5, 4, 8, 9},   // min(5,4)=4 → 4+4=8
		{6, 5, 6, 5, 10, 11}, // min(6,5)=5 → 5+5=10
		{8, 7, 6, 7, 13, 15}, // min(6,7)=6 → 7+6=13
	}
	for _, tc := range cases {
		p := FromNines(tc.benign, tc.correct, tc.sync)
		cft, xft, bft := NinesOfConsistency(1, p)
		if cft != tc.wantCFT || xft != tc.wantXFT || bft != tc.wantBFT {
			t.Errorf("(9b=%d,9c=%d,9s=%d): got CFT=%d XFT=%d BFT=%d, want %d/%d/%d",
				tc.benign, tc.correct, tc.sync, cft, xft, bft, tc.wantCFT, tc.wantXFT, tc.wantBFT)
		}
	}
}

// TestTable6SpotChecks verifies Table 6 cells (consistency, t=2).
func TestTable6SpotChecks(t *testing.T) {
	cases := []struct {
		benign, correct, sync     int
		wantCFT, wantXFT, wantBFT int
	}{
		{3, 2, 2, 2, 4, 7},
		{3, 2, 3, 2, 5, 7},
	}
	for _, tc := range cases {
		p := FromNines(tc.benign, tc.correct, tc.sync)
		cft, xft, bft := NinesOfConsistency(2, p)
		if cft != tc.wantCFT || xft != tc.wantXFT || bft != tc.wantBFT {
			t.Errorf("(9b=%d,9c=%d,9s=%d) t=2: got %d/%d/%d, want %d/%d/%d",
				tc.benign, tc.correct, tc.sync, cft, xft, bft, tc.wantCFT, tc.wantXFT, tc.wantBFT)
		}
	}
}

// TestTable7SpotChecks verifies Table 7 (availability, t=1):
// 9ofA(XPaxos) = 9ofA(BFT) = 2×9available − 1.
func TestTable7SpotChecks(t *testing.T) {
	for avail := 2; avail <= 6; avail++ {
		p := availParams(avail, avail+2)
		_, xft, bft := NinesOfAvailability(1, p)
		want := 2*avail - 1
		if xft != want || bft != want {
			t.Errorf("9avail=%d: XPaxos=%d BFT=%d, want both %d", avail, xft, bft, want)
		}
	}
	// CFT cells follow the Section 6.2.1 relation:
	// 9ofA(XPaxos) − 9ofA(CFT) = max(2×9avail − 9benign, 0).
	// Table 7 row 9avail=2: CFT = 2,3,3,3,3,3 for 9benign = 3..8.
	for _, tc := range []struct{ avail, benign, want int }{
		{2, 3, 2}, {2, 4, 3}, {2, 5, 3}, {2, 8, 3},
		{3, 4, 3}, {3, 5, 4}, {3, 6, 5}, {3, 8, 5},
		{4, 5, 4}, {4, 6, 5}, {4, 7, 6}, {4, 8, 7},
	} {
		p := availParams(tc.avail, tc.benign)
		cft, _, _ := NinesOfAvailability(1, p)
		if cft != tc.want {
			t.Errorf("Table 7 (9avail=%d, 9benign=%d): CFT=%d, want %d", tc.avail, tc.benign, cft, tc.want)
		}
	}
}

// TestTable8SpotChecks verifies Table 8 (availability, t=2):
// 9ofA(XPaxos) = 3×9available − 1 = 9ofA(BFT) + 1.
func TestTable8SpotChecks(t *testing.T) {
	for avail := 2; avail <= 6; avail++ {
		p := availParams(avail, avail+2)
		_, xft, bft := NinesOfAvailability(2, p)
		want := 3*avail - 1
		if xft != want {
			t.Errorf("9avail=%d: XPaxos=%d, want %d", avail, xft, want)
		}
		if bft != want-1 {
			t.Errorf("9avail=%d: BFT=%d, want %d", avail, bft, want-1)
		}
	}
}

// TestXFTAlwaysAtLeastCFT encodes the paper's headline claim: XFT's
// consistency and availability are at least CFT's for any parameters.
func TestXFTAlwaysAtLeastCFT(t *testing.T) {
	check := func(b, c, s uint8) bool {
		benign := 2 + int(b)%10
		correct := 1 + int(c)%(benign)
		if correct >= benign {
			correct = benign - 1
		}
		if correct < 1 {
			correct = 1
		}
		sync := 1 + int(s)%10
		p := FromNines(benign, correct, sync)
		for _, tf := range []int{1, 2} {
			if ConsistencyXFT(tf, p).Cmp(ConsistencyCFT(tf, p)) < 0 {
				return false
			}
			if AvailabilityXFT(tf, p).Cmp(AvailabilityCFT(tf, p)) < 0 {
				return false
			}
			// And XFT availability ≥ BFT availability (Table 1).
			if AvailabilityXFT(tf, p).Cmp(AvailabilityBFT(tf, p)) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestXFTvsBFTCrossover checks the t=1 condition of Section 6.1.2:
// XPaxos is more consistent than BFT iff p_available > p_benign^1.5.
func TestXFTvsBFTCrossover(t *testing.T) {
	cases := []struct {
		benign, correct, sync int
	}{
		{2, 1, 1}, {3, 2, 2}, {4, 3, 3}, {5, 4, 4}, {6, 3, 3}, {8, 2, 2},
	}
	for _, tc := range cases {
		p := FromNines(tc.benign, tc.correct, tc.sync)
		pav := p.PAvailable()
		// p_benign^1.5 via (p^3)^(1/2).
		pb3 := pow(p.PBenign, 3)
		pb15 := new(big.Float).SetPrec(prec).Sqrt(pb3)
		xftBetter := ConsistencyXFT(1, p).Cmp(ConsistencyBFT(1, p)) > 0
		condition := pav.Cmp(pb15) > 0
		if xftBetter != condition {
			t.Errorf("(9b=%d 9c=%d 9s=%d): XFT>BFT=%v but p_av>p_b^1.5=%v",
				tc.benign, tc.correct, tc.sync, xftBetter, condition)
		}
	}
}

func TestNinesFunction(t *testing.T) {
	cases := []struct {
		p    string
		want int
	}{
		{"0.9", 1}, {"0.99", 2}, {"0.999", 3}, {"0.9999", 4}, {"0.5", 0},
	}
	for _, tc := range cases {
		v, _, err := big.ParseFloat(tc.p, 10, 300, big.ToNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		if got := Nines(v); got != tc.want {
			t.Errorf("Nines(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	// Exact boundary handling at high precision.
	if got := Nines(OneMinusPow10(15)); got != 15 {
		t.Errorf("Nines(1-1e-15) = %d, want 15", got)
	}
	if got := Nines(OneMinusPow10(22)); got != 22 {
		t.Errorf("Nines(1-1e-22) = %d, want 22", got)
	}
}

func TestTablesRender(t *testing.T) {
	for _, tf := range []int{1, 2} {
		ct := ConsistencyTable(tf)
		if !strings.Contains(ct, "XPaxos") || len(strings.Split(ct, "\n")) < 10 {
			t.Errorf("consistency table t=%d too small:\n%s", tf, ct)
		}
		at := AvailabilityTable(tf)
		if !strings.Contains(at, "9available") {
			t.Errorf("availability table t=%d malformed", tf)
		}
	}
	ex := FormatExamples()
	if !strings.Contains(ex, "Example 1") {
		t.Errorf("examples output malformed: %s", ex)
	}
}

// TestProbabilityBounds: all six closed forms are probabilities in
// [0, 1].
func TestProbabilityBounds(t *testing.T) {
	one := f(1)
	for benign := 2; benign <= 8; benign += 2 {
		for correct := 1; correct < benign; correct += 2 {
			for sync := 1; sync <= 6; sync += 2 {
				p := FromNines(benign, correct, sync)
				for _, tf := range []int{1, 2, 3} {
					for _, v := range []*big.Float{
						ConsistencyCFT(tf, p), ConsistencyXFT(tf, p), ConsistencyBFT(tf, p),
						AvailabilityCFT(tf, p), AvailabilityXFT(tf, p), AvailabilityBFT(tf, p),
					} {
						if v.Sign() < 0 || v.Cmp(one) > 0 {
							t.Fatalf("probability out of range at 9b=%d 9c=%d 9s=%d t=%d: %v",
								benign, correct, sync, tf, v)
						}
					}
				}
			}
		}
	}
}
