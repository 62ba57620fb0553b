// Command benchmark is the repository's live benchmark: XPaxos replicas
// and clients in one process over loopback TCP, with real Ed25519, a
// real WAL and the kv store, driven by four named workloads. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
)

// result is the last line a run prints, in the shape the acceptance
// driver reads.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the keys, values, get/put sequence and key material")
		seconds = flag.Int("seconds", 25, "measured seconds of the end-to-end pass; the traced pass splits them between an untraced and a traced cluster")
		trace   = flag.String("trace", "both", "0: end-to-end pass, 1: traced per-layer pass, both: one after the other")
		spans   = flag.String("spans", "", "file the traced pass writes its spans to (default "+scratchDir+"/spans-<workload>.jsonl)")
		runs    = flag.Int("runs", 1, "repeat the end-to-end pass with seeds seed, seed+1, ... and report median and quartiles")
		out     = flag.String("out", "", "with -runs: also write every run's metrics to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any end-to-end metric disagrees")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *runs < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fatal(2, "bad -seconds, -runs or -trace")
	}
	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		ws = append(ws, w)
	} else {
		fatal(2, fmt.Sprintf("unknown workload %q", *name))
	}
	fmt.Printf("xft live loopback benchmark: GOMAXPROCS=%d nproc=%d %s %s/%s seed=%d seconds=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, *seed, *seconds)
	measure := time.Duration(*seconds) * time.Second

	if *runs > 1 || *out != "" {
		set := runSet{}
		for _, w := range ws {
			for i := 0; i < *runs; i++ {
				res := endToEndPass(w, *seed+int64(i), measure)
				set.add(w.name, res)
			}
		}
		set.print()
		if *out != "" {
			if err := set.write(*out); err != nil {
				fatal(1, err.Error())
			}
		}
		if !set.correct {
			os.Exit(1)
		}
		return
	}

	ok := true
	crypto.SharedPool() // its workers live for the process; start them before counting
	baseline := runtime.NumGoroutine()
	for _, w := range ws {
		if *trace != "1" {
			ok = endToEndPass(w, *seed, measure).Correct && ok
		}
		if *trace != "0" {
			path := *spans
			if path == "" {
				path = filepath.Join(scratchDir, "spans-"+w.name+".jsonl")
			}
			ok = tracedPass(w, *seed, measure, path).Correct && ok
		}
		if leaked := leakedGoroutines(baseline); leaked > 0 {
			// stderr: the result line stays the last line of stdout.
			fmt.Fprintf(os.Stderr, "WARNING: %d goroutines outlived workload %s\n", leaked, w.name)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}

// leakedGoroutines gives the goroutines of stopped nodes up to 200 ms
// to finish exiting and returns how many more than baseline remain.
func leakedGoroutines(baseline int) int {
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	return runtime.NumGoroutine() - baseline
}

// endToEndPass measures a workload with every wrapper off and prints
// the end-to-end metrics; the JSON line is the last thing it prints.
func endToEndPass(w *workload, seed int64, measure time.Duration) result {
	fmt.Printf("\n== %s: end-to-end pass, seed %d, %v measured\n", w.name, seed, measure)
	t, err := runPass(w, seed, measure, nil)
	if err != nil {
		fatal(1, err.Error())
	}
	perSlice := t.committed / len(t.slices)
	notes := map[string]string{
		"throughput_ops_s": fmt.Sprintf("median of %d slices; %d committed in %.1fs", len(t.slices), t.committed, t.seconds),
		"latency_p50_ms":   fmt.Sprintf("median of %d slices of ~%d samples", len(t.slices), perSlice),
		"latency_p99_ms":   fmt.Sprintf("median of %d slices, ~%d samples beyond it in each", len(t.slices), perSlice/100),
		"cpu_us_per_op":    fmt.Sprintf("median of %d slices", len(t.slices)),
		"outage_ms":        fmt.Sprintf("median of %d slices", len(t.slices)),
		"setup_s":          fmt.Sprintf("median of %d boots", len(t.setupS)),
	}
	if t.thinTail {
		notes["latency_p99_ms"] += "; TOO FEW for a tail: run longer"
	}
	return report(t, endToEnd, t.endToEnd(), notes)
}

// tracedPass measures the same workload twice for the same time — an
// untraced cluster, then a cluster with every layer boundary wrapped —
// and prints the per-layer metrics of the second. The two clusters run
// identical settings, so their throughput difference is the tracing
// overhead.
func tracedPass(w *workload, seed int64, measure time.Duration, spanPath string) result {
	// Both halves run the same shortened workload: 40% of the window
	// each, at most 3 s of warm-up, and one boot (set-up time is an
	// end-to-end metric; this pass does not report it).
	tw := *w
	w = &tw
	w.boots, w.warmup = 1, min(w.warmup, 3*time.Second)
	measure = measure * 2 / 5
	fmt.Printf("\n== %s: traced pass, seed %d, 2 x %v measured\n", w.name, seed, measure)
	floors, err := rawFloors(seed)
	if err != nil {
		fatal(1, err.Error())
	}
	plain, err := runPass(w, seed, measure, nil)
	if err != nil {
		fatal(1, err.Error())
	}
	tr := newTracer()
	t, err := runPass(w, seed, measure, tr)
	if err != nil {
		fatal(1, err.Error())
	}
	if plain.violation != "" && t.violation == "" {
		t.violation = plain.violation
	}
	spans := tr.allSpans()
	res := report(t, perLayer, tr.perLayer(t, float64(plain.committed)/plain.seconds, floors, spans), nil)
	if err := writeSpans(spanPath, spans); err != nil {
		fatal(1, err.Error())
	}
	// The JSON line must stay last, so the span note goes to stderr.
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.name, len(spans), spanPath)
	return res
}

// report prints one pass's metrics by name, with unit and note, and
// then the result line.
func report(t *tally, defs []metricDef, values map[string]float64, notes map[string]string) result {
	res := result{Correct: t.violation == "", Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := values[d.name]
		fmt.Printf("  %-40s %14.4f %-6s %s\n", d.name, v, d.unit, notes[d.name])
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	fmt.Printf("  attempted=%d failed=%d\n", t.attempted, t.failed)
	if t.violation != "" {
		fmt.Printf("ORACLE VIOLATION: %s\n", t.violation)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, err.Error())
	}
	fmt.Println(string(line))
	return res
}
