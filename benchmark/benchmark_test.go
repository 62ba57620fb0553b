package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the registry in metrics.go and workload.go")

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	// Ten samples beyond the percentile: p99 needs 1000, p99.9 needs 10000.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {1000, 0.999, false}, {10000, 0.999, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The acceptance driver measures spread with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if s := spread([]float64{90, 100, 110, 100, 100}); math.Abs(s-0.10) > 1e-9 {
		t.Errorf("spread = %v, want 0.10", s)
	}
}

func TestQuietest(t *testing.T) {
	ms := int64(time.Millisecond)
	times := []int64{1 * ms, 2 * ms, 9 * ms, 18 * ms}
	for _, c := range []struct {
		from, to   int64
		strays     int
		start, end int64
	}{
		{0, 10 * ms, 0, 2 * ms, 9 * ms},         // between the commits at 2 and 9 ms
		{10 * ms, 20 * ms, 0, 10 * ms, 18 * ms}, // the window's start counts as an end
		{0, 20 * ms, 1, 2 * ms, 18 * ms},        // one stray commit (9 ms) is ignored
		{0, 20 * ms, 4, 0, 20 * ms},             // everything may be ignored
		{30 * ms, 50 * ms, 0, 30 * ms, 50 * ms}, // an empty window is all quiet
	} {
		if start, end := quietest(within(times, c.from, c.to), c.from, c.to, c.strays); start != c.start || end != c.end {
			t.Errorf("quietest(%d..%d ms, %d strays) = %d..%d ms, want %d..%d",
				c.from/ms, c.to/ms, c.strays, start/ms, end/ms, c.start/ms, c.end/ms)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Nested: 2 is a child of 1, 3 a child of 2.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 2, Start: 20, End: 30},
		// Overlapping siblings cover 50..80 once, not 50..70 plus 60..80.
		{ID: 4, Parent: 1, Start: 50, End: 70},
		{ID: 5, Parent: 1, Start: 60, End: 80},
		// A child that outlives its parent counts only while inside it.
		{ID: 6, Parent: 1, Start: 90, End: 150},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 30 - 30 - 10, 2: 20, 3: 10, 4: 20, 5: 20, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency", bound: 0.10}
	higher := metricDef{name: "throughput", higher: true, bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"equal", steady(100), steady(100), lower, "same"},
		{"within the bound", steady(100), steady(108), lower, "same"},
		{"latency up", steady(100), steady(115), lower, "worse"},
		{"latency down", steady(100), steady(85), lower, "better"},
		{"throughput down", steady(100), steady(85), higher, "worse"},
		{"throughput up", steady(100), steady(115), higher, "better"},
		{"noisy set", []float64{70, 100, 130, 100, 100}, steady(100), lower, "unresolved"},
		{"absent metric", nil, steady(100), lower, "missing"},
	} {
		if _, got := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if gap, _ := judge(steady(100), steady(85), higher); math.Abs(gap-0.15) > 1e-9 {
		t.Errorf("gap of a 15%% throughput drop = %v, want +0.15 (worse is positive)", gap)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func metricsJSON(defs []metricDef, bounds bool) []metricJSON {
	var out []metricJSON
	for _, d := range defs {
		m := metricJSON{Name: d.name, Unit: d.unit, Better: "lower"}
		if d.higher {
			m.Better = "higher"
		}
		if bounds {
			b := d.bound
			m.Bound = &b
		}
		out = append(out, m)
	}
	return out
}

// TestBenchmarkJSON holds BENCHMARK.json to the registry the program
// prints from, and both to the acceptance contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 25,
		EndToEnd:   metricsJSON(endToEnd, true),
		PerLayer:   metricsJSON(perLayer, false),
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadJSON{w.name, w.why})
	}
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; run go test ./benchmark -run TestBenchmarkJSON -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is outside the contract", d.name, d.unit)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && !d.higher)
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is outside the contract", d.name, d.unit)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, want at most 64 KiB", len(raw))
	}
}

// TestSmoke runs put1k-lockstep for one second on a live cluster with
// every wrapper on: the oracle holds, the client commits, every metric
// of both passes is produced, and the span tree hangs together.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster")
	}
	w := *findWorkload("put1k-lockstep")
	w.warmup, w.boots = 200*time.Millisecond, 1
	t.Cleanup(func() { os.Remove(scratchDir) }) // left empty by the run
	tr := newTracer()
	ta, err := runPass(&w, 7, time.Second, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ta.violation != "" {
		t.Fatalf("oracle: %s", ta.violation)
	}
	if ta.committed < 10 || ta.failed != 0 {
		t.Fatalf("committed %d, failed %d of %d attempted", ta.committed, ta.failed, ta.attempted)
	}
	e2e := ta.endToEnd()
	for _, d := range endToEnd {
		if v, ok := e2e[d.name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, v)
		}
	}
	spans := tr.allSpans()
	layers := tr.perLayer(ta, e2e["throughput_ops_s"], nil, spans)
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok && !isFloor(d.name) {
			t.Errorf("per-layer metric %s is missing", d.name)
		}
	}
	if got := layers["xpaxos.batch_ops_mean"]; got != 1 {
		t.Errorf("lockstep batches hold %v requests, want 1", got)
	}
	if got := layers["crypto.signs_per_op"]; got < 2.5 || got > 3.5 {
		t.Errorf("%v signatures per request, want 3 (client, primary, follower)", got)
	}
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if p, ok := byID[s.Parent]; ok {
			children++
			if p.Node != s.Node {
				t.Fatalf("span %s on node %d has a parent on node %d", s.Name, s.Node, p.Node)
			}
		}
	}
	if children == 0 {
		t.Error("no span has a kept parent")
	}
}

func isFloor(name string) bool {
	switch name {
	case "crypto.raw_sign_us", "crypto.raw_verify_us", "crypto.raw_batch20_us_per_sig", "wal.raw_fsync_ms", "wire.raw_encode_batch20x1k_ns":
		return true
	}
	return false
}
