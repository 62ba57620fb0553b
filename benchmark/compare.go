package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// runSet is the end-to-end metrics of several runs: workload -> metric
// -> one value per run. -runs fills one, -out writes it, -compare
// reads two.
type runSet struct {
	Workloads map[string]map[string][]float64 `json:"workloads"`
	correct   bool
}

func (s *runSet) add(workload string, res result) {
	if s.Workloads == nil {
		s.Workloads = map[string]map[string][]float64{}
		s.correct = true
	}
	if s.Workloads[workload] == nil {
		s.Workloads[workload] = map[string][]float64{}
	}
	for name, m := range res.Metrics {
		s.Workloads[workload][name] = append(s.Workloads[workload][name], m.Value)
	}
	s.correct = s.correct && res.Correct
}

// print shows each metric's median, quartiles and spread over the runs.
func (s *runSet) print() {
	for _, w := range workloads {
		ms := s.Workloads[w.name]
		if ms == nil {
			continue
		}
		fmt.Printf("\n== %s: %d runs\n", w.name, len(ms[endToEnd[0].name]))
		fmt.Printf("  %-20s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(ms[d.name])
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%\n", d.name, q1, q2, q3, 100*spread(ms[d.name]), 100*d.bound)
		}
	}
}

func (s *runSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &runSet{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// judge compares two sets of runs of one metric. gap is how much worse
// b's median is than a's, as a share of a's (negative: better). The
// pair is unresolved when either set's own interquartile spread is
// wider than the bound — then the runs cannot tell a difference of the
// bound's size from noise — and otherwise same, worse or better.
func judge(a, b []float64, d metricDef) (gap float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		gap = (mb - ma) / math.Abs(ma)
	}
	if d.higher {
		gap = -gap
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return gap, "missing"
	case spread(a) > d.bound || spread(b) > d.bound:
		return gap, "unresolved"
	case gap > d.bound:
		return gap, "worse"
	case gap < -d.bound:
		return gap, "better"
	}
	return gap, "same"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, their gap and the bound, and returns the exit code: 0 when
// every pair is the same within its bound, 1 otherwise.
func compareFiles(pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		ma, mb := a.Workloads[w.name], b.Workloads[w.name]
		if ma == nil && mb == nil {
			continue
		}
		fmt.Printf("\n== %s\n", w.name)
		fmt.Printf("  %-20s %12s %12s %8s %6s  %s\n", "metric", "a", "b", "gap", "bound", "verdict")
		for _, d := range endToEnd {
			gap, verdict := judge(ma[d.name], mb[d.name], d)
			fmt.Printf("  %-20s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				d.name, median(ma[d.name]), median(mb[d.name]), 100*gap, 100*d.bound, verdict)
			if verdict != "same" {
				code = 1
			}
		}
	}
	return code
}
