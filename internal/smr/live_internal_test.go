package smr

import (
	"testing"
	"time"
)

// TestLiveCancelTimerLeavesNoTombstones drives a TimerSet as a live
// runtime's loop does and cancels each timer after its TimerFired was
// delivered — by contract a no-op. The regression: CancelTimer used to
// tombstone such ids in the cancelled map forever, an unbounded leak on
// long-running servers (every request sets and later cancels a timer).
func TestLiveCancelTimerLeavesNoTombstones(t *testing.T) {
	ts := NewTimerSet()
	inbox := make(chan TimerFired, 2)
	deliver := func(tf TimerFired) { inbox <- tf }
	// Cancelled before firing: must leave no state either.
	ts.Cancel(ts.Set(time.Hour, "never", deliver))
	ts.Set(time.Millisecond, "soon", deliver)
	select {
	case tf := <-inbox:
		if !ts.Deliver(tf) {
			t.Fatal("a live timer's delivery was refused")
		}
		ts.Cancel(tf.ID)
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	if pending, tombstones := ts.Sizes(); pending != 0 || tombstones != 0 {
		t.Errorf("timer maps leaked: pending=%d tombstones=%d", pending, tombstones)
	}
}
