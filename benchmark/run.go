package main

import (
	"sort"
	"time"
)

// sliceLen is the length of the slices a steady workload's window is
// cut into. Each end-to-end metric is computed per slice and reported
// as the median over the slices, so a burst of interference from the
// host — common on the small shared boxes this runs on — spoils some
// slices rather than the run's figure. On crash-primary a slice is one
// round's whole window, fault included.
const sliceLen = 2500 * time.Millisecond

// sliceStats is one slice of a measured window.
type sliceStats struct {
	throughput float64 // committed requests per second
	p50MS      float64
	p99MS      float64
	cpuUS      float64 // process CPU per committed request
	outageMS   float64 // longest interval with next to no commits, see outageStrays
}

// tally accumulates what the measured windows of one pass saw.
type tally struct {
	attempted, failed int
	committed         int
	seconds           float64
	slices            []sliceStats
	thinTail          bool      // some slice has fewer than ten samples beyond its p99
	steadyMS          []float64 // latency of requests due before any fault
	setupS            []float64
	lateMS            []float64 // open loop: how late the generator issued
	violation         string
}

// add folds in the requests of one stopped cluster. edges are the
// slice boundaries of its measured window, first to last, and cpu the
// process CPU time read at each. A closed loop counts the commits that
// landed inside a slice; an open loop counts the requests that were
// due inside it and times them from their due time, so work due during
// an outage is charged for the wait.
func (t *tally) add(c *cluster, edges []int64, cpu []time.Duration, faultAt int64) {
	open := c.w.rate > 0
	from, to := edges[0], edges[len(edges)-1]
	lat := make([][]float64, len(edges)-1)
	var commits []int64
	slot := func(at int64) int { // the slice holding at; -1 outside the window
		if at < from || at >= to {
			return -1
		}
		return sort.Search(len(edges), func(i int) bool { return edges[i] > at }) - 1
	}
	for _, cl := range c.clients {
		for i := range cl.reqs {
			r := &cl.reqs[i]
			onTime := r.done != 0 && r.done-r.due <= int64(deadline)
			if slot(r.due) >= 0 {
				t.attempted++
				if !onTime {
					t.failed++
				}
			}
			if slot(r.done) >= 0 {
				commits = append(commits, r.done)
			}
			k := slot(r.done)
			if open {
				if k = slot(r.due); !onTime {
					k = -1
				}
			}
			if k >= 0 {
				ms := float64(r.done-r.due) / 1e6
				lat[k] = append(lat[k], ms)
				if faultAt == 0 || r.due < faultAt {
					t.steadyMS = append(t.steadyMS, ms)
				}
			}
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i] < commits[j] })
	for i := range lat {
		sort.Float64s(lat[i])
		secs := float64(edges[i+1]-edges[i]) / 1e9
		t.slices = append(t.slices, sliceStats{
			throughput: float64(len(lat[i])) / secs,
			p50MS:      percentile(lat[i], 0.50),
			p99MS:      percentile(lat[i], 0.99),
			cpuUS:      ratio(float64((cpu[i+1] - cpu[i]).Microseconds()), float64(len(lat[i]))),
			outageMS:   outage(commits, edges[i], edges[i+1]),
		})
		t.thinTail = t.thinTail || !tailSupported(len(lat[i]), 0.99)
		t.committed += len(lat[i])
		t.seconds += secs
	}
	if v := c.checkFinalState(); v != "" && t.violation == "" {
		t.violation = v
	}
}

// endToEnd turns the tally into the end-to-end metrics: each the
// median over the slices.
func (t *tally) endToEnd() map[string]float64 {
	over := func(f func(sliceStats) float64) float64 {
		xs := make([]float64, len(t.slices))
		for i, s := range t.slices {
			xs[i] = f(s)
		}
		return median(xs)
	}
	return map[string]float64{
		"throughput_ops_s": over(func(s sliceStats) float64 { return s.throughput }),
		"latency_p50_ms":   over(func(s sliceStats) float64 { return s.p50MS }),
		"latency_p99_ms":   over(func(s sliceStats) float64 { return s.p99MS }),
		"cpu_us_per_op":    over(func(s sliceStats) float64 { return s.cpuUS }),
		"outage_ms":        over(func(s sliceStats) float64 { return s.outageMS }),
		"setup_s":          median(t.setupS),
	}
}

// outageStrays is the share of a slice's commits that may land inside
// an interval that still counts as an outage: one in a hundred. After a
// primary crash a few replies that were already prepared trickle in
// long before the clients' retransmissions bring service back, and an
// interval that holds a hundredth of the slice's work is not service.
// On the steady workloads the allowance makes the metric "the longest
// it took to do 1% of a slice's work": 25 ms of normal progress plus
// the worst stall.
const outageStrays = 100

// outage returns, in ms, the longest interval of [from, to] in which at
// most 1/outageStrays of the window's commits land.
func outage(commits []int64, from, to int64) float64 {
	in := within(commits, from, to)
	start, end := quietest(in, from, to, len(in)/outageStrays)
	return float64(end-start) / 1e6
}

// measureSlices sleeps through a window starting now, reading the
// process CPU time at every slice boundary.
func measureSlices(length, slice time.Duration) (edges []int64, cpu []time.Duration) {
	from := now()
	for at := from; ; at += int64(slice) {
		if at > from+int64(length) {
			at = from + int64(length)
		}
		sleepUntil(at)
		edges, cpu = append(edges, at), append(cpu, cpuTime())
		if at == from+int64(length) {
			return edges, cpu
		}
	}
}

// runSteady is one pass of a closed-loop workload: warm up, measure for
// the given time, drain, stop, check.
func runSteady(w *workload, seed int64, measure time.Duration, tr *tracer) (*tally, error) {
	t := &tally{}
	var c *cluster
	for i := 0; i < w.boots; i++ {
		if c != nil {
			c.stop()
		}
		var err error
		// Only the last cluster carries the load, and the wrappers.
		var ctr *tracer
		if i == w.boots-1 {
			ctr = tr
		}
		if c, err = boot(w, seed, ctr); err != nil {
			return nil, err
		}
		t.setupS = append(t.setupS, c.setup.Seconds())
	}
	for _, cl := range c.clients {
		cl.startClosed()
	}
	time.Sleep(w.warmup)
	tr.watch(c)
	edges, cpu := measureSlices(measure, sliceLen)
	tr.unwatch(c)
	for _, cl := range c.clients {
		cl.quiesce()
	}
	drain(c.clients)
	c.stopClients()
	c.settle()
	c.stop()
	t.add(c, edges, cpu, 0)
	tr.finish(c, 0)
	return t, nil
}

// runCrash is one pass of crash-primary: as many rounds as fit the
// measured time, each on a fresh cluster. A round runs the open-loop
// schedule through settle and steady, stops replica 0 — the primary of
// views 0 and 1 — and keeps the schedule going for post more. The
// measured window is steady+post; requests are sent on schedule through
// the fault and timed from their due time.
func runCrash(w *workload, seed int64, measure time.Duration, tr *tracer) (*tally, error) {
	t := &tally{}
	round := w.steady + w.post
	rounds := int((measure + round/2) / round)
	if rounds < 1 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		c, err := boot(w, seed+int64(i)<<32, tr)
		if err != nil {
			return nil, err
		}
		t.setupS = append(t.setupS, c.setup.Seconds())
		start := now()
		from := start + int64(w.settle)
		// The kill lands halfway between two keepalive ticks of the
		// survivors, so detection — the first tick at which the silence
		// exceeds the probe timeout — takes the same time every round.
		killAt := from + int64(w.steady)
		probe := int64(w.probe)
		killAt += (probe/2 - (killAt-c.started)%probe + probe) % probe
		to := killAt + int64(w.post)
		paced := make(chan []float64)
		go func() { paced <- pace(c.clients, w.rate, start, to) }()
		sleepUntil(from)
		tr.watch(c)
		cpu0 := cpuTime()
		sleepUntil(killAt)
		c.kill(0)
		t.lateMS = append(t.lateMS, <-paced...)
		end, cpu1 := now(), cpuTime()
		tr.unwatch(c)
		drain(c.clients)
		for _, cl := range c.clients {
			cl.quiesce()
		}
		c.stopClients()
		c.settle()
		c.stop()
		t.add(c, []int64{from, end}, []time.Duration{cpu0, cpu1}, killAt)
		tr.finish(c, killAt)
	}
	return t, nil
}

// pace is the open-loop generator: one goroutine walks the schedule,
// offers each request to its client at its due time, and reports how
// late each offer was. It never waits for the system under test.
func pace(clients []*client, rate int, start, end int64) (lateMS []float64) {
	step := int64(time.Second) / int64(rate)
	for i, due := 0, start; due < end; i, due = i+1, due+step {
		sleepUntil(due)
		lateMS = append(lateMS, float64(now()-due)/1e6)
		clients[i%len(clients)].offer(due)
	}
	return lateMS
}

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func runPass(w *workload, seed int64, measure time.Duration, tr *tracer) (*tally, error) {
	if w.crash {
		return runCrash(w, seed, measure, tr)
	}
	return runSteady(w, seed, measure, tr)
}
