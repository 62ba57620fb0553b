package model

import (
	"math/big"
	"testing"
)

// The contract between the package's two statements of the guarantee:
// Table 1's predicates (ConsistencyHolds, AvailabilityHolds) and the
// Section 6 closed forms describe one model. The tests below walk every
// Section 6 fault state of n replicas and check one against the other.

// Section 6 places each replica in one of four states.
const (
	synchronous = iota // correct and synchronous
	partitioned        // correct but cut off from every other replica
	crashed
	nonCrash
)

// tally counts the replicas in each of the four states. All fault
// states with the same tally have the same Section 6 weight.
type tally [4]int

// walk calls visit with every assignment of the four states to n
// replicas (4^n of them), as a tally and the Condition it describes.
func walk(n int, visit func(k tally, c *Condition)) {
	states := 1 << (2 * n)
	for code := 0; code < states; code++ {
		var k tally
		c := NewFullyConnected(n)
		for i := 0; i < n; i++ {
			s := code >> (2 * i) & 3
			k[s]++
			switch s {
			case partitioned:
				for j := 0; j < n; j++ {
					if j != i {
						c.Disconnect(i, j)
					}
				}
			case crashed:
				c.SetFault(i, Crash)
			case nonCrash:
				c.SetFault(i, NonCrash)
			}
		}
		visit(k, c)
	}
}

// weight returns the Section 6 probability of one fault state with
// tally k: each replica independently synchronous with p_correct ×
// p_synchrony, partitioned with p_correct × (1 − p_synchrony), crashed
// with p_benign − p_correct and non-crash faulty with 1 − p_benign.
func weight(k tally, p Params) *big.Float {
	probs := [4]*big.Float{
		p.PAvailable(),
		mul(p.PCorrect, sub(f(1), p.PSynchrony)),
		p.PCrash(),
		p.PNonCrash(),
	}
	w := f(1)
	for s, count := range k {
		w = mul(w, pow(probs[s], count))
	}
	return w
}

// TestClosedFormsMatchEnumeration sums the weights of the fault states
// in which each Table 1 predicate holds and compares the sums with the
// six closed forms: CFT and XFT at n = 2t+1 for t = 1–3, BFT at
// n = 3t+1 for t = 1–2, each for consistency and availability.
func TestClosedFormsMatchEnumeration(t *testing.T) {
	type form struct {
		name   string
		model  Model
		avail  bool
		closed func(t int, p Params) *big.Float
	}
	forms := []form{
		{"ConsistencyCFT", AsyncCFT, false, ConsistencyCFT},
		{"AvailabilityCFT", AsyncCFT, true, AvailabilityCFT},
		{"ConsistencyXFT", XFT, false, ConsistencyXFT},
		{"AvailabilityXFT", XFT, true, AvailabilityXFT},
		{"ConsistencyBFT", AsyncBFT, false, ConsistencyBFT},
		{"AvailabilityBFT", AsyncBFT, true, AvailabilityBFT},
	}
	// Parameter points as (9benign, 9correct, 9synchrony).
	points := [][3]int{{4, 3, 3}, {4, 3, 4}, {8, 2, 6}, {3, 1, 2}}
	tolerance := sub(f(1), OneMinusPow10(80)) // 10^-80
	worst := f(0)
	for _, fm := range forms {
		ts, n := []int{1, 2, 3}, func(t int) int { return 2*t + 1 }
		if fm.model == AsyncBFT {
			ts, n = []int{1, 2}, func(t int) int { return 3*t + 1 }
		}
		for _, tf := range ts {
			// holding[k] is the number of states with tally k in which
			// the predicate holds.
			holding := map[tally]int64{}
			walk(n(tf), func(k tally, c *Condition) {
				holds := ConsistencyHolds(fm.model, c)
				if fm.avail {
					holds = AvailabilityHolds(fm.model, c)
				}
				if holds {
					holding[k]++
				}
			})
			for _, nines := range points {
				p := FromNines(nines[0], nines[1], nines[2])
				sum := f(0)
				for _, k := range tallies(n(tf)) {
					if m := holding[k]; m > 0 {
						sum = add(sum, mul(f(float64(m)), weight(k, p)))
					}
				}
				diff := new(big.Float).SetPrec(prec).Abs(sub(sum, fm.closed(tf, p)))
				if diff.Cmp(worst) > 0 {
					worst = diff
				}
				if diff.Cmp(tolerance) > 0 {
					t.Errorf("%s t=%d at nines %v: enumeration %s, closed form %s",
						fm.name, tf, nines, sum.Text('g', 30), fm.closed(tf, p).Text('g', 30))
				}
			}
		}
	}
	t.Logf("worst difference %s", worst.Text('g', 3))
}

// tallies lists every tally of n replicas in a fixed order, so that
// sums over them round the same way on every run.
func tallies(n int) []tally {
	var out []tally
	for s := 0; s <= n; s++ {
		for p := 0; s+p <= n; p++ {
			for c := 0; s+p+c <= n; c++ {
				out = append(out, tally{s, p, c, n - s - p - c})
			}
		}
	}
	return out
}

// within reports whether cnt lies inside a Table 1 row: every count at
// most its own bound and, for a combined row, their sum at most the
// largest bound.
func within(g Guarantee, cnt Counts) bool {
	if cnt.NonCrash > g.NonCrash || cnt.Crash > g.Crash || cnt.Partitioned > g.Partitioned {
		return false
	}
	return !g.Combined || cnt.NonCrash+cnt.Crash+cnt.Partitioned <= max(g.NonCrash, g.Crash, g.Partitioned)
}

// TestTable1RowsMatchPredicates checks each Table 1 row against the
// predicates over the same walk: every fault state inside a row has the
// row's property, and for CFT, BFT and XFT every state outside all of a
// model's rows for a property lacks it. Synchronous BFT's consistency
// is checked one way only: it holds with n non-crash faults, which its
// row does not list.
func TestTable1RowsMatchPredicates(t *testing.T) {
	check := func(n int, m Model, property string, rows []Guarantee, holds bool, cnt Counts) {
		inside := false
		for _, g := range rows {
			inside = inside || within(g, cnt)
		}
		oneWay := m == SyncBFT && property == "consistency"
		if inside && !holds || !inside && holds && !oneWay {
			t.Errorf("n=%d %v %+v: %s holds %v, inside a Table 1 row %v", n, m, cnt, property, holds, inside)
		}
	}
	for _, n := range []int{3, 4, 5, 7} {
		walk(n, func(_ tally, c *Condition) {
			cnt := c.Counts()
			for _, m := range []Model{AsyncCFT, AsyncBFT, SyncBFT, XFT} {
				check(n, m, "consistency", MaxConsistency(m, n), ConsistencyHolds(m, c), cnt)
				check(n, m, "availability", []Guarantee{MaxAvailability(m, n)}, AvailabilityHolds(m, c), cnt)
			}
		})
	}
}
