// Package model formalizes the fault model of the paper "XFT:
// Practical Fault Tolerance Beyond Crashes" and states its guarantee
// both ways the paper does.
//
//   - Sections 2–3: machine fault states (correct / crash / non-crash),
//     network fault accounting (partitioned replicas, Definition 1) and
//     the anarchy predicate (Definition 2) that delimits when an XFT
//     protocol such as XPaxos guarantees consistency.
//   - Table 1: the guarantee matrix comparing asynchronous CFT,
//     asynchronous BFT, authenticated synchronous BFT and XFT, with
//     ConsistencyHolds/AvailabilityHolds as its predicates.
//   - Section 6 and Appendix D: closed-form probabilities that CFT, BFT
//     and XFT are consistent and available, and the tables of nines
//     built from them.
//
// The closed forms are the fast path for the printed tables. The
// package's contract test enumerates every fault state of n replicas,
// weights it by the Section 6 probabilities and checks that the states
// where the predicates hold add up to the closed forms.
package model

import "math/bits"

// FaultState classifies a machine at a given moment (Section 2).
type FaultState int

const (
	// Correct machines follow the protocol and never stop.
	Correct FaultState = iota
	// Crash machines have stopped all computation and communication.
	Crash
	// NonCrash machines act arbitrarily (Byzantine) but cannot break
	// cryptographic primitives.
	NonCrash
)

// Condition is a snapshot of the system at moment s: the fault state
// of every replica and which correct replicas are partitioned.
type Condition struct {
	// Machines[i] is replica i's fault state.
	Machines []FaultState
	// Connected[i][j] reports whether replicas i and j can exchange and
	// process messages within the known delay Δ (Section 2). Only
	// entries between correct machines are meaningful; the matrix must
	// be symmetric with Connected[i][i] == true.
	Connected [][]bool
}

// NewFullyConnected returns a Condition with n correct, fully
// synchronous replicas.
func NewFullyConnected(n int) *Condition {
	c := &Condition{
		Machines:  make([]FaultState, n),
		Connected: make([][]bool, n),
	}
	for i := range c.Connected {
		c.Connected[i] = make([]bool, n)
		for j := range c.Connected[i] {
			c.Connected[i][j] = true
		}
	}
	return c
}

// N returns the number of replicas.
func (c *Condition) N() int { return len(c.Machines) }

// SetFault marks replica i with the given state.
func (c *Condition) SetFault(i int, state FaultState) { c.Machines[i] = state }

// Disconnect cuts timely communication between replicas i and j.
func (c *Condition) Disconnect(i, j int) {
	c.Connected[i][j] = false
	c.Connected[j][i] = false
}

// Counts carries the paper's fault counters at a moment s.
type Counts struct {
	NonCrash    int // tnc(s)
	Crash       int // tc(s)
	Partitioned int // tp(s): correct but partitioned replicas
}

// Counts computes tnc(s), tc(s) and tp(s) for the condition.
//
// Partitioned replicas follow Definition 1: a correct replica p is
// partitioned iff p is not in the largest subset of replicas in which
// every pair can communicate within Δ. Faulty machines cannot anchor
// timely communication, so cliques are computed over correct machines
// only; if several subsets have maximum size, one is (arbitrarily but
// deterministically) recognized as "the" largest, exactly as the paper
// prescribes for ties.
func (c *Condition) Counts() Counts {
	var out Counts
	var correct []int
	for i, m := range c.Machines {
		switch m {
		case Crash:
			out.Crash++
		case NonCrash:
			out.NonCrash++
		default:
			correct = append(correct, i)
		}
	}
	clique := largestClique(correct, c.Connected)
	out.Partitioned = len(correct) - clique
	return out
}

// largestClique returns the size of the largest subset of the given
// vertices in which every pair is connected. Exponential in the worst
// case but n ≤ ~25 in every deployment we model; uses a bitmask
// Bron–Kerbosch-style recursion with pruning.
func largestClique(vertices []int, conn [][]bool) int {
	n := len(vertices)
	if n == 0 {
		return 0
	}
	if n > 63 {
		panic("model: largestClique supports at most 63 correct replicas")
	}
	// adj[i] is the bitmask of vertices adjacent to vertices[i].
	adj := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && conn[vertices[i]][vertices[j]] {
				adj[i] |= 1 << uint(j)
			}
		}
	}
	best := 0
	var expand func(clique int, candidates uint64)
	expand = func(clique int, candidates uint64) {
		if clique+bits.OnesCount64(candidates) <= best {
			return // cannot beat the best found so far
		}
		if candidates == 0 {
			if clique > best {
				best = clique
			}
			return
		}
		for candidates != 0 {
			v := bits.TrailingZeros64(candidates)
			candidates &^= 1 << uint(v)
			expand(clique+1, candidates&adj[v])
			if clique+bits.OnesCount64(candidates) <= best {
				return
			}
		}
		if clique > best {
			best = clique
		}
	}
	expand(0, (uint64(1)<<uint(n))-1)
	return best
}

// InAnarchy implements Definition 2: the system is in anarchy at
// moment s iff tnc(s) > 0 and tc(s) + tnc(s) + tp(s) > t, where t is
// the replica fault threshold (t ≤ ⌊(n−1)/2⌋).
func (c *Condition) InAnarchy(t int) bool {
	cnt := c.Counts()
	return cnt.NonCrash > 0 && cnt.Crash+cnt.NonCrash+cnt.Partitioned > t
}
