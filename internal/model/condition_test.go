package model

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestFigure1Scenario reproduces the paper's Figure 1: five replicas
// split into three groups {p1,p4}, {p2,p3} and {p5} whose pairwise
// communication exceeds Δ. The largest synchronous subset is {p1,p4}
// or {p2,p3} (ties break arbitrarily), so the partitioned replicas are
// {p2,p3,p5} or {p1,p4,p5} — 3 replicas either way.
func TestFigure1Scenario(t *testing.T) {
	c := NewFullyConnected(5)
	// Replica indices 0..4 stand for p1..p5. Keep p1-p4 and p2-p3
	// timely; cut every inter-group pair.
	groups := [][]int{{0, 3}, {1, 2}, {4}}
	for gi := range groups {
		for gj := gi + 1; gj < len(groups); gj++ {
			for _, a := range groups[gi] {
				for _, b := range groups[gj] {
					c.Disconnect(a, b)
				}
			}
		}
	}
	cnt := c.Counts()
	if cnt.Partitioned != 3 {
		t.Fatalf("partitioned = %d, want 3 (Figure 1)", cnt.Partitioned)
	}
	if cnt.Crash != 0 || cnt.NonCrash != 0 {
		t.Fatalf("unexpected machine faults: %+v", cnt)
	}
}

func TestNoFaultsNoPartitions(t *testing.T) {
	c := NewFullyConnected(7)
	cnt := c.Counts()
	if cnt != (Counts{}) {
		t.Fatalf("counts = %+v, want zero", cnt)
	}
	if c.InAnarchy(3) {
		t.Fatalf("fault-free system reported in anarchy")
	}
	if !AvailabilityHolds(XFT, c) {
		t.Fatalf("fault-free system is not available")
	}
}

func TestFullyDisconnectedAllButOnePartitioned(t *testing.T) {
	// "The number of partitioned replicas can be as much as n−1."
	n := 5
	c := NewFullyConnected(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.Disconnect(i, j)
		}
	}
	if got := c.Counts().Partitioned; got != n-1 {
		t.Fatalf("partitioned = %d, want %d", got, n-1)
	}
}

func TestCrashedReplicasAreNotPartitioned(t *testing.T) {
	c := NewFullyConnected(5)
	c.SetFault(0, Crash)
	c.SetFault(1, NonCrash)
	cnt := c.Counts()
	if cnt.Crash != 1 || cnt.NonCrash != 1 || cnt.Partitioned != 0 {
		t.Fatalf("counts = %+v", cnt)
	}
}

func TestAnarchyDefinition(t *testing.T) {
	// n=5, t=2: anarchy iff tnc>0 and tc+tnc+tp > 2; XFT is available
	// iff tc+tnc+tp ≤ 2, i.e. a majority is correct and synchronous.
	cases := []struct {
		name            string
		nonCrash, crash int
		disconnectPairs [][2]int
		wantAnarchy     bool
		wantAvailable   bool
	}{
		{"no faults", 0, 0, nil, false, true},
		{"one byzantine", 1, 0, nil, false, true},
		{"two byzantine", 2, 0, nil, false, true},
		{"byzantine + 2 crashes", 1, 2, nil, true, false},
		{"three crashes no byzantine", 0, 3, nil, false, false},
		{"byzantine + 1 crash", 1, 1, nil, false, true},
		{"byzantine + crash + partition", 1, 1, [][2]int{{3, 0}, {3, 1}, {3, 2}, {3, 4}}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewFullyConnected(5)
			idx := 0
			for i := 0; i < tc.nonCrash; i++ {
				c.SetFault(idx, NonCrash)
				idx++
			}
			for i := 0; i < tc.crash; i++ {
				c.SetFault(idx, Crash)
				idx++
			}
			for _, p := range tc.disconnectPairs {
				c.Disconnect(p[0], p[1])
			}
			if got := c.InAnarchy(2); got != tc.wantAnarchy {
				t.Errorf("InAnarchy = %v, want %v (counts %+v)", got, tc.wantAnarchy, c.Counts())
			}
			if got := AvailabilityHolds(XFT, c); got != tc.wantAvailable {
				t.Errorf("AvailabilityHolds(XFT) = %v, want %v", got, tc.wantAvailable)
			}
		})
	}
}

// TestXFTvsSyncBFTSection32 encodes the Section 3.2 example: n=5,
// three replicas correct and synchronous, one correct but partitioned,
// one non-crash faulty. XFT mandates consistency; authenticated
// synchronous BFT may violate it.
func TestXFTvsSyncBFTSection32(t *testing.T) {
	c := NewFullyConnected(5)
	c.SetFault(4, NonCrash)
	for i := 0; i < 5; i++ {
		if i != 3 {
			c.Disconnect(3, i)
		}
	}
	cnt := c.Counts()
	if cnt.Partitioned != 1 || cnt.NonCrash != 1 {
		t.Fatalf("scenario setup wrong: %+v", cnt)
	}
	if !ConsistencyHolds(XFT, c) {
		t.Errorf("XFT must guarantee consistency here (outside anarchy)")
	}
	if ConsistencyHolds(SyncBFT, c) {
		t.Errorf("synchronous BFT must NOT guarantee consistency with a partitioned replica")
	}
	if ConsistencyHolds(AsyncCFT, c) {
		t.Errorf("CFT must not guarantee consistency with a non-crash fault")
	}
	if !ConsistencyHolds(AsyncBFT, c) {
		t.Errorf("async BFT tolerates 1 non-crash fault at n=5")
	}
}

func TestTable1MatrixT1(t *testing.T) {
	// n=3 (t=1) for CFT/XFT; n=4 for BFT's own resource model is
	// handled by callers — Table 1 is expressed for a common n.
	n := 3
	xftCons := MaxConsistency(XFT, n)
	if len(xftCons) != 2 {
		t.Fatalf("XFT consistency must have two modes")
	}
	if xftCons[0].NonCrash != 0 || xftCons[0].Crash != n || xftCons[0].Partitioned != n-1 {
		t.Fatalf("XFT mode 1 = %+v", xftCons[0])
	}
	if !xftCons[1].Combined || xftCons[1].NonCrash != 1 {
		t.Fatalf("XFT mode 2 = %+v", xftCons[1])
	}
	cft := MaxConsistency(AsyncCFT, n)[0]
	if cft.NonCrash != 0 || cft.Crash != n || cft.Partitioned != n-1 {
		t.Fatalf("CFT consistency = %+v", cft)
	}
	bft := MaxConsistency(AsyncBFT, 4)[0]
	if bft.NonCrash != 1 {
		t.Fatalf("BFT n=4 tolerates %d non-crash, want 1", bft.NonCrash)
	}
	sbft := MaxConsistency(SyncBFT, n)[0]
	if sbft.NonCrash != n-1 || sbft.Partitioned != 0 {
		t.Fatalf("sync BFT consistency = %+v", sbft)
	}
	av := MaxAvailability(XFT, n)
	if !av.Combined || av.NonCrash != 1 {
		t.Fatalf("XFT availability = %+v", av)
	}
}

func TestFormatTable1(t *testing.T) {
	out := FormatTable1(5)
	for _, want := range []string{"Asynchronous CFT", "Asynchronous BFT", "Synchronous BFT", "XPaxos", "(combined)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// Property: XFT's guarantee set strictly contains CFT's (Section 3.2).
// For random conditions, whenever CFT guarantees consistency or
// availability, so does XFT.
func TestPropertyXFTStrongerThanCFT(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + 2*rng.Intn(3) // 3, 5, 7
		c := NewFullyConnected(n)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				c.SetFault(i, Crash)
			case 1:
				c.SetFault(i, NonCrash)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					c.Disconnect(i, j)
				}
			}
		}
		if ConsistencyHolds(AsyncCFT, c) && !ConsistencyHolds(XFT, c) {
			return false
		}
		if AvailabilityHolds(AsyncCFT, c) && !AvailabilityHolds(XFT, c) {
			return false
		}
		// XFT availability is also at least BFT's (Table 1).
		if AvailabilityHolds(AsyncBFT, c) && !AvailabilityHolds(XFT, c) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: partitioned count is between 0 and (#correct − 1), and 0
// when the correct subgraph is complete.
func TestPropertyPartitionedBounds(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := NewFullyConnected(n)
		correct := 0
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				c.SetFault(i, Crash)
			} else {
				correct++
			}
		}
		disconnected := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					c.Disconnect(i, j)
					if c.Machines[i] == Correct && c.Machines[j] == Correct {
						disconnected = true
					}
				}
			}
		}
		p := c.Counts().Partitioned
		if p < 0 || (correct > 0 && p > correct-1) {
			return false
		}
		if !disconnected && p != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLargestCliqueKnownGraphs(t *testing.T) {
	conn := func(n int, edges [][2]int) [][]bool {
		m := make([][]bool, n)
		for i := range m {
			m[i] = make([]bool, n)
			m[i][i] = true
		}
		for _, e := range edges {
			m[e[0]][e[1]] = true
			m[e[1]][e[0]] = true
		}
		return m
	}
	all := func(n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = i
		}
		return v
	}
	// Triangle plus isolated vertex.
	if got := largestClique(all(4), conn(4, [][2]int{{0, 1}, {1, 2}, {0, 2}})); got != 3 {
		t.Fatalf("triangle clique = %d, want 3", got)
	}
	// Path graph 0-1-2-3: max clique 2.
	if got := largestClique(all(4), conn(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})); got != 2 {
		t.Fatalf("path clique = %d, want 2", got)
	}
	// Empty graph.
	if got := largestClique(all(3), conn(3, nil)); got != 1 {
		t.Fatalf("empty graph clique = %d, want 1", got)
	}
	if got := largestClique(nil, nil); got != 0 {
		t.Fatalf("no vertices clique = %d, want 0", got)
	}
}
