package model

// Section 6 of the paper: closed-form probabilities that CFT, BFT and
// XFT state-machine replication are consistent (safe) and available
// (live), assuming machine and network fault states are independent and
// identically distributed across replicas.
//
// Probabilities are computed with 300-bit big.Float arithmetic so that
// "nines" up to ~80 are exact — the paper's tables go to 22 nines, far
// beyond float64's resolution near 1.
//
// A replica is benign with probability p_benign (correct or crash),
// correct with p_correct ≤ p_benign, synchronous with p_synchrony, and
// available (correct AND synchronous) with p_available = p_correct ×
// p_synchrony. CFT and XFT use n = 2t+1 replicas; asynchronous BFT uses
// n = 3t+1.

import (
	"fmt"
	"math"
	"math/big"
)

// prec is the binary precision of all computations.
const prec = 300

// Params holds the per-replica probabilities.
type Params struct {
	PBenign    *big.Float
	PCorrect   *big.Float
	PSynchrony *big.Float
}

// FromNines builds Params from "nines" exponents: a value of k means
// probability 1 − 10^(−k). The paper's tables are parameterized this
// way (9benign, 9correct, 9synchrony).
func FromNines(benign, correct, synchrony int) Params {
	return Params{
		PBenign:    OneMinusPow10(benign),
		PCorrect:   OneMinusPow10(correct),
		PSynchrony: OneMinusPow10(synchrony),
	}
}

// OneMinusPow10 returns 1 − 10^(−k) at full precision.
func OneMinusPow10(k int) *big.Float {
	one := big.NewFloat(1).SetPrec(prec)
	if k <= 0 {
		return one
	}
	ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
	inv := new(big.Float).SetPrec(prec).Quo(one, new(big.Float).SetPrec(prec).SetInt(ten))
	return new(big.Float).SetPrec(prec).Sub(one, inv)
}

func f(v float64) *big.Float { return big.NewFloat(v).SetPrec(prec) }

func sub(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Sub(a, b) }
func add(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Add(a, b) }
func mul(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Mul(a, b) }

func pow(base *big.Float, e int) *big.Float {
	r := f(1)
	b := new(big.Float).SetPrec(prec).Set(base)
	for n := e; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = mul(r, b)
		}
		b = mul(b, b)
	}
	return r
}

func binom(n, k int) *big.Float {
	b := new(big.Int).Binomial(int64(n), int64(k))
	return new(big.Float).SetPrec(prec).SetInt(b)
}

// PAvailable returns p_correct × p_synchrony.
func (p Params) PAvailable() *big.Float { return mul(p.PCorrect, p.PSynchrony) }

// PCrash returns p_benign − p_correct.
func (p Params) PCrash() *big.Float { return sub(p.PBenign, p.PCorrect) }

// PNonCrash returns 1 − p_benign.
func (p Params) PNonCrash() *big.Float { return sub(f(1), p.PBenign) }

// ---------------------------------------------------------------------------
// Consistency (Section 6.1)
// ---------------------------------------------------------------------------

// ConsistencyCFT returns P[CFT is consistent] = p_benign^n, n = 2t+1.
func ConsistencyCFT(t int, p Params) *big.Float {
	return pow(p.PBenign, 2*t+1)
}

// ConsistencyBFT returns P[BFT is consistent] with n = 3t+1:
// Σ_{i=0..t} C(n,i) (1−p_benign)^i p_benign^(n−i).
func ConsistencyBFT(t int, p Params) *big.Float {
	n := 3*t + 1
	pnc := p.PNonCrash()
	sum := f(0)
	for i := 0; i <= t; i++ {
		term := mul(binom(n, i), mul(pow(pnc, i), pow(p.PBenign, n-i)))
		sum = add(sum, term)
	}
	return sum
}

// ConsistencyXFT returns P[XPaxos is consistent] with n = 2t+1
// (Section 6.1.1): consistent when there are no non-crash faults, or
// when the total of non-crash, crash and partitioned replicas is at
// most t.
func ConsistencyXFT(t int, p Params) *big.Float {
	n := 2*t + 1
	pnc := p.PNonCrash()
	pcr := p.PCrash()
	psy := p.PSynchrony
	pas := sub(f(1), psy)
	sum := pow(p.PBenign, n)
	for i := 1; i <= t; i++ {
		inner := f(0)
		for j := 0; j <= t-i; j++ {
			innermost := f(0)
			rem := n - i - j
			for k := 0; k <= t-i-j; k++ {
				term := mul(binom(rem, k), mul(pow(psy, rem-k), pow(pas, k)))
				innermost = add(innermost, term)
			}
			term := mul(binom(n-i, j), mul(pow(pcr, j), mul(pow(p.PCorrect, rem), innermost)))
			inner = add(inner, term)
		}
		sum = add(sum, mul(binom(n, i), mul(pow(pnc, i), inner)))
	}
	return sum
}

// ---------------------------------------------------------------------------
// Availability (Section 6.2)
// ---------------------------------------------------------------------------

// AvailabilityXFT returns P[XPaxos is available], n = 2t+1: at least
// t+1 replicas available.
func AvailabilityXFT(t int, p Params) *big.Float {
	pav := p.PAvailable()
	return atLeast(2*t+1, t+1, pav, sub(f(1), pav))
}

// AvailabilityCFT returns P[CFT is available], n = 2t+1: at least t+1
// replicas available and the remaining replicas benign.
func AvailabilityCFT(t int, p Params) *big.Float {
	pav := p.PAvailable()
	return atLeast(2*t+1, t+1, pav, sub(p.PBenign, pav))
}

// AvailabilityBFT returns P[BFT is available], n = 3t+1: at least
// n − t replicas available.
func AvailabilityBFT(t int, p Params) *big.Float {
	pav := p.PAvailable()
	return atLeast(3*t+1, 2*t+1, pav, sub(f(1), pav))
}

// atLeast returns the binomial tail Σ_{i=k..n} C(n,i) p^i rest^(n−i):
// the probability that at least k of n replicas are in a state of
// probability p while each of the others is in a state of probability
// rest.
func atLeast(n, k int, p, rest *big.Float) *big.Float {
	sum := f(0)
	for i := k; i <= n; i++ {
		sum = add(sum, mul(binom(n, i), mul(pow(p, i), pow(rest, n-i))))
	}
	return sum
}

// ---------------------------------------------------------------------------
// Nines
// ---------------------------------------------------------------------------

// Nines implements 9of(p) = ⌊−log10(1−p)⌋.
func Nines(p *big.Float) int {
	comp := sub(f(1), p)
	if comp.Sign() <= 0 {
		return math.MaxInt32
	}
	// comp = mant × 2^exp with mant ∈ [0.5, 1).
	mant := new(big.Float)
	exp := comp.MantExp(mant)
	m, _ := mant.Float64()
	log10 := math.Log10(m) + float64(exp)*math.Log10(2)
	n := int(math.Floor(-log10))
	// Guard against representation jitter at exact powers of ten
	// (decimal probabilities are not exactly representable in binary):
	// accept a candidate k when comp ≤ 10^-k × (1 + 1e-20).
	slack := add(f(1), new(big.Float).SetPrec(prec).Quo(f(1), new(big.Float).SetPrec(prec).SetInt(
		new(big.Int).Exp(big.NewInt(10), big.NewInt(20), nil))))
	for _, cand := range []int{n + 1, n} {
		if cand < 0 {
			continue
		}
		bound := new(big.Float).SetPrec(prec).Quo(f(1), new(big.Float).SetPrec(prec).SetInt(
			new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(cand)), nil)))
		if comp.Cmp(mul(bound, slack)) <= 0 {
			return cand
		}
	}
	return n
}

// NinesOfConsistency returns (CFT, XFT, BFT) nines of consistency for
// fault threshold t.
func NinesOfConsistency(t int, p Params) (cft, xft, bft int) {
	return Nines(ConsistencyCFT(t, p)), Nines(ConsistencyXFT(t, p)), Nines(ConsistencyBFT(t, p))
}

// NinesOfAvailability returns (CFT, XFT, BFT) nines of availability.
func NinesOfAvailability(t int, p Params) (cft, xft, bft int) {
	return Nines(AvailabilityCFT(t, p)), Nines(AvailabilityXFT(t, p)), Nines(AvailabilityBFT(t, p))
}

// ---------------------------------------------------------------------------
// Table generators (Appendix D)
// ---------------------------------------------------------------------------

// ConsistencyTable renders Table 5 (t = 1) or Table 6 (t = 2): rows
// over 9benign and 9correct, columns over 9synchrony in [2,6], with
// the CFT and BFT references.
func ConsistencyTable(t int) string {
	out := fmt.Sprintf("Nines of consistency (t=%d)\n", t)
	out += fmt.Sprintf("%-8s %-10s %-9s %-30s %-10s\n", "9benign", "9ofC(CFT)", "9correct", "9ofC(XPaxos) for 9sync=2..6", "9ofC(BFT)")
	for benign := 3; benign <= 8; benign++ {
		for correct := 2; correct < benign; correct++ {
			p0 := FromNines(benign, correct, 2)
			cft := Nines(ConsistencyCFT(t, p0))
			bft := Nines(ConsistencyBFT(t, p0))
			row := ""
			for sync := 2; sync <= 6; sync++ {
				p := FromNines(benign, correct, sync)
				row += fmt.Sprintf("%-4d", Nines(ConsistencyXFT(t, p)))
			}
			out += fmt.Sprintf("%-8d %-10d %-9d %-30s %-10d\n", benign, cft, correct, row, bft)
		}
	}
	return out
}

// AvailabilityTable renders Table 7 (t = 1) or Table 8 (t = 2): rows
// over 9available, columns over 9benign, plus BFT and XPaxos columns
// (the latter two depend only on 9available).
func AvailabilityTable(t int) string {
	out := fmt.Sprintf("Nines of availability (t=%d)\n", t)
	out += fmt.Sprintf("%-10s %-36s %-10s %-14s\n", "9available", "9ofA(CFT) for 9benign=3..8", "9ofA(BFT)", "9ofA(XPaxos)")
	for avail := 2; avail <= 6; avail++ {
		row := ""
		for benign := 3; benign <= 8; benign++ {
			if benign <= avail {
				row += fmt.Sprintf("%-4s", "-")
				continue
			}
			p := availParams(avail, benign)
			row += fmt.Sprintf("%-4d", Nines(AvailabilityCFT(t, p)))
		}
		p := availParams(avail, avail+2)
		out += fmt.Sprintf("%-10d %-36s %-10d %-14d\n", avail, row,
			Nines(AvailabilityBFT(t, p)), Nines(AvailabilityXFT(t, p)))
	}
	return out
}

// availParams builds Params with p_available = 1−10^-avail and
// p_benign = 1−10^-benign. Availability formulas only consume
// p_available and p_benign, so p_correct/p_synchrony are assigned the
// whole availability factor and 1 respectively.
func availParams(avail, benign int) Params {
	return Params{
		PBenign:    OneMinusPow10(benign),
		PCorrect:   OneMinusPow10(avail),
		PSynchrony: f(1),
	}
}

// FormatExamples renders the worked examples of Section 6 — useful for
// README/EXPERIMENTS cross-checks.
func FormatExamples() string {
	out := "Section 6 worked examples\n"
	// Example 1: p_benign=0.9999, p_correct=p_synchrony=0.999.
	p1 := FromNines(4, 3, 3)
	c1, x1, b1 := NinesOfConsistency(1, p1)
	out += fmt.Sprintf("Example 1 (9benign=4, 9correct=9sync=3): CFT=%d XPaxos=%d BFT=%d\n", c1, x1, b1)
	// Example 2: p_benign=p_synchrony=0.9999, p_correct=0.999.
	p2 := FromNines(4, 3, 4)
	c2, x2, b2 := NinesOfConsistency(1, p2)
	out += fmt.Sprintf("Example 2 (9benign=9sync=4, 9correct=3): CFT=%d XPaxos=%d BFT=%d\n", c2, x2, b2)
	// Availability example: p_available=0.999, p_benign=0.99999.
	pa := availParams(3, 5)
	ca, xa, ba := NinesOfAvailability(1, pa)
	out += fmt.Sprintf("Availability example (9avail=3, 9benign=5): CFT=%d XPaxos=%d BFT=%d\n", ca, xa, ba)
	return out
}
