package smr

import "time"

// TimerSet implements the Env timer contract for a runtime on real
// timers (the TCP transport): AfterFunc-backed timers with tombstones
// for timers cancelled between firing and delivery. Both maps stay
// bounded by the number of in-flight timers —
// the bug class this type exists to fix once is CancelTimer on an
// already-delivered timer leaving a permanent tombstone.
//
// A TimerSet is confined to its owning node goroutine: Set and Cancel
// are called from Step, Deliver from the event loop. Only the deliver
// callback runs elsewhere (the timer goroutine); it must hand the
// event to the node's inbox and must not drop it, since only delivery
// clears the bookkeeping.
type TimerSet struct {
	next      TimerID
	pending   map[TimerID]*time.Timer
	cancelled map[TimerID]bool
}

// NewTimerSet returns an empty TimerSet.
func NewTimerSet() *TimerSet {
	return &TimerSet{
		pending:   make(map[TimerID]*time.Timer),
		cancelled: make(map[TimerID]bool),
	}
}

// Set arranges for deliver(TimerFired{id, kind}) after d and returns
// the timer's id.
func (ts *TimerSet) Set(d time.Duration, kind string, deliver func(TimerFired)) TimerID {
	ts.next++
	id := ts.next
	ts.pending[id] = time.AfterFunc(d, func() {
		deliver(TimerFired{ID: id, Kind: kind})
	})
	return id
}

// Cancel prevents a pending timer from being processed. Cancelling a
// timer that already fired and was delivered (or was never set) is a
// no-op — only a timer caught mid-flight, fired but not yet delivered,
// gets a tombstone, which Deliver removes on arrival.
func (ts *TimerSet) Cancel(id TimerID) {
	t, ok := ts.pending[id]
	if !ok {
		return
	}
	delete(ts.pending, id)
	if !t.Stop() {
		ts.cancelled[id] = true
	}
}

// Deliver records the arrival of tf and reports whether the node
// should process it (false: it was cancelled while in flight).
func (ts *TimerSet) Deliver(tf TimerFired) bool {
	if ts.cancelled[tf.ID] {
		delete(ts.cancelled, tf.ID)
		return false
	}
	delete(ts.pending, tf.ID)
	return true
}

// Sizes reports the current pending and tombstone counts, for leak
// checks and metrics.
func (ts *TimerSet) Sizes() (pending, tombstones int) {
	return len(ts.pending), len(ts.cancelled)
}
