package netsim

import (
	"container/heap"
	"math/rand"
	"time"
)

// engine is the deterministic discrete-event core every Network embeds:
// a virtual clock and a priority queue of callbacks ordered by (virtual
// time, insertion sequence). Running it pops callbacks in order; they
// may schedule further ones. Because ties break by insertion sequence
// and randomness comes only from a seeded generator, entire experiments
// are reproducible bit-for-bit.
type engine struct {
	now    time.Duration
	queue  timerHeap
	seq    uint64
	rng    *rand.Rand
	popped uint64 // callbacks run so far
}

func newEngine(seed int64) engine {
	return engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (time since simulation start).
func (e *engine) Now() time.Duration { return e.now }

// Rand returns the simulation's deterministic random source.
func (e *engine) Rand() *rand.Rand { return e.rng }

// Timer is a scheduled callback; Cancel prevents it from firing.
type Timer struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel prevents the callback from firing. Safe to call multiple
// times and after it has fired.
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
	}
}

// At schedules fn to run at absolute virtual time at (experiment
// actions such as fault injection). Times in the past run "now" (at the
// current virtual time) but still in queue order.
func (e *engine) At(at time.Duration, fn func()) { e.schedule(at, fn) }

// After schedules fn to run d after the current virtual time.
func (e *engine) After(d time.Duration, fn func()) *Timer { return e.schedule(e.now+d, fn) }

func (e *engine) schedule(at time.Duration, fn func()) *Timer {
	if at < e.now {
		at = e.now
	}
	t := &Timer{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, t)
	return t
}

// Step runs the next callback, if any, and reports whether one ran.
// Cancelled callbacks are skipped (and not reported).
func (e *engine) Step() bool {
	for e.queue.Len() > 0 {
		t := heap.Pop(&e.queue).(*Timer)
		if t.cancelled {
			continue
		}
		e.now = t.at
		e.popped++
		t.fn()
		return true
	}
	return false
}

// Run drains every pending callback (careful: protocols with periodic
// timers never drain; prefer RunUntil).
func (e *engine) Run() {
	for e.Step() {
	}
}

// RunUntil runs callbacks with time ≤ deadline. Afterwards the virtual
// clock reads deadline even if the queue drained early.
func (e *engine) RunUntil(deadline time.Duration) {
	for e.queue.Len() > 0 {
		if e.queue[0].cancelled {
			heap.Pop(&e.queue)
			continue
		}
		if e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances virtual time by d.
func (e *engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*Timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
