package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := newEngine(1)
	var order []int
	e.After(30*time.Millisecond, func() { order = append(order, 3) })
	e.After(10*time.Millisecond, func() { order = append(order, 1) })
	e.After(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("final time %v, want 30ms", e.Now())
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	e := newEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want insertion order", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := newEngine(1)
	var fired []time.Duration
	e.After(time.Millisecond, func() {
		fired = append(fired, e.Now())
		e.After(time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := newEngine(1)
	fired := false
	tm := e.After(time.Millisecond, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Fatalf("cancelled event fired")
	}
	if !tm.cancelled {
		t.Fatalf("timer not marked cancelled")
	}
}

func TestCancelAfterFireIsSafe(t *testing.T) {
	e := newEngine(1)
	tm := e.After(time.Millisecond, func() {})
	e.Run()
	tm.Cancel() // must not panic
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := newEngine(1)
	var fired []int
	e.After(time.Millisecond, func() { fired = append(fired, 1) })
	e.After(time.Second, func() { fired = append(fired, 2) })
	e.RunUntil(500 * time.Millisecond)
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want only first event", fired)
	}
	if e.Now() != 500*time.Millisecond {
		t.Fatalf("clock %v, want 500ms", e.Now())
	}
	if e.queue.Len() != 1 {
		t.Fatalf("pending %d, want 1", e.queue.Len())
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("second event never ran")
	}
}

func TestScheduleInPastRunsNow(t *testing.T) {
	e := newEngine(1)
	var at time.Duration = -1
	e.After(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past event ran at %v, want 10ms (now)", at)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := newEngine(42)
	b := newEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatalf("same seed, different random streams")
		}
	}
}

func TestProcessedCount(t *testing.T) {
	e := newEngine(1)
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	tm := e.After(time.Hour, func() {})
	tm.Cancel()
	e.Run()
	if e.popped != 5 {
		t.Fatalf("processed = %d, want 5 (cancelled events don't count)", e.popped)
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the clock ends at the max delay.
func TestPropertyMonotonicClock(t *testing.T) {
	check := func(delays []uint16) bool {
		e := newEngine(7)
		var last time.Duration = -1
		ok := true
		var maxD time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Microsecond
			if dd > maxD {
				maxD = dd
			}
			e.After(dd, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && (len(delays) == 0 || e.Now() == maxD)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := newEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}
