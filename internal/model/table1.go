package model

import (
	"fmt"
	"strings"
)

// Model identifies a fault-tolerance model from Table 1 of the paper.
type Model int

const (
	// AsyncCFT is asynchronous crash fault tolerance (Paxos, Raft).
	AsyncCFT Model = iota
	// AsyncBFT is asynchronous Byzantine fault tolerance (PBFT).
	AsyncBFT
	// SyncBFT is authenticated synchronous BFT (Byzantine Generals).
	SyncBFT
	// XFT is cross fault tolerance (XPaxos).
	XFT
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case AsyncCFT:
		return "Asynchronous CFT (e.g., Paxos)"
	case AsyncBFT:
		return "Asynchronous BFT (e.g., PBFT)"
	case SyncBFT:
		return "(Authenticated) Synchronous BFT (e.g., Byzantine Generals)"
	case XFT:
		return "XFT (e.g., XPaxos)"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Guarantee is one row of Table 1: the maximum number of each type of
// fault a model tolerates while preserving the given property. A
// Combined row (rendered "(combined)" in the paper) also bounds the
// *sum* of all fault types, by its largest entry.
type Guarantee struct {
	NonCrash    int
	Crash       int
	Partitioned int
	Combined    bool // crash+non-crash+partitioned is bounded jointly
}

// MaxConsistency returns the Table 1 consistency row(s) for the model
// with n replicas. XFT returns two rows because its consistency has
// two modes (with and without non-crash faults); other models return
// one.
func MaxConsistency(m Model, n int) []Guarantee {
	switch m {
	case AsyncCFT:
		return []Guarantee{{NonCrash: 0, Crash: n, Partitioned: n - 1}}
	case AsyncBFT:
		return []Guarantee{{NonCrash: (n - 1) / 3, Crash: n, Partitioned: n - 1}}
	case SyncBFT:
		return []Guarantee{{NonCrash: n - 1, Crash: n, Partitioned: 0}}
	case XFT:
		return []Guarantee{
			{NonCrash: 0, Crash: n, Partitioned: n - 1},
			{NonCrash: (n - 1) / 2, Crash: (n - 1) / 2, Partitioned: (n - 1) / 2, Combined: true},
		}
	default:
		panic("model: unknown model")
	}
}

// MaxAvailability returns the Table 1 availability row for the model
// with n replicas. All listed models bound availability by a combined
// fault count.
func MaxAvailability(m Model, n int) Guarantee {
	switch m {
	case AsyncCFT:
		return Guarantee{NonCrash: 0, Crash: (n - 1) / 2, Partitioned: (n - 1) / 2, Combined: true}
	case AsyncBFT:
		t := (n - 1) / 3
		return Guarantee{NonCrash: t, Crash: t, Partitioned: t, Combined: true}
	case SyncBFT:
		return Guarantee{NonCrash: n - 1, Crash: n - 1, Partitioned: 0, Combined: true}
	case XFT:
		t := (n - 1) / 2
		return Guarantee{NonCrash: t, Crash: t, Partitioned: t, Combined: true}
	default:
		panic("model: unknown model")
	}
}

// ConsistencyHolds evaluates whether a model's consistency guarantee
// covers the given condition, using threshold t = ⌊(n−1)/2⌋ for
// XFT/CFT and ⌊(n−1)/3⌋ for async BFT. This is the predicate behind
// Table 1; the package's contract test checks it against the Table 1
// rows and the Section 6 closed forms.
func ConsistencyHolds(m Model, c *Condition) bool {
	n := c.N()
	cnt := c.Counts()
	switch m {
	case AsyncCFT:
		return cnt.NonCrash == 0
	case AsyncBFT:
		return cnt.NonCrash <= (n-1)/3
	case SyncBFT:
		return cnt.Partitioned == 0
	case XFT:
		return !c.InAnarchy((n - 1) / 2)
	default:
		panic("model: unknown model")
	}
}

// AvailabilityHolds evaluates whether a model's availability guarantee
// covers the condition.
func AvailabilityHolds(m Model, c *Condition) bool {
	n := c.N()
	cnt := c.Counts()
	total := cnt.NonCrash + cnt.Crash + cnt.Partitioned
	switch m {
	case AsyncCFT:
		return cnt.NonCrash == 0 && total <= (n-1)/2
	case AsyncBFT:
		return total <= (n-1)/3
	case SyncBFT:
		return cnt.Partitioned == 0 && cnt.NonCrash+cnt.Crash <= n-1
	case XFT:
		return total <= (n-1)/2
	default:
		panic("model: unknown model")
	}
}

// FormatTable1 renders the Table 1 guarantee matrix for n replicas in
// the paper's layout. The benchmark arena (internal/bench.Arena,
// `xft-bench arena`) measures the performance side of the same
// trade-off: the CFT baselines that out-run XPaxos there tolerate no
// non-crash faults, and the BFT baselines need 3t+1 replicas where
// XFT needs 2t+1 — throughput numbers only mean something next to
// this matrix.
func FormatTable1(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Maximum number of each type of replica fault tolerated (n = %d)\n", n)
	fmt.Fprintf(&b, "%-62s %-12s %-10s %-8s %-12s\n", "Model", "property", "non-crash", "crash", "partitioned")
	row := func(label, prop string, g Guarantee) {
		suffix := ""
		if g.Combined {
			suffix = " (combined)"
		}
		fmt.Fprintf(&b, "%-62s %-12s %-10d %-8d %-12d%s\n", label, prop, g.NonCrash, g.Crash, g.Partitioned, suffix)
	}
	for _, m := range []Model{AsyncCFT, AsyncBFT, SyncBFT, XFT} {
		cons := MaxConsistency(m, n)
		for i, g := range cons {
			label := ""
			if i == 0 {
				label = m.String()
			}
			row(label, "consistency", g)
		}
		row("", "availability", MaxAvailability(m, n))
	}
	return b.String()
}
