package smr_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
	"github.com/xft-consensus/xft/internal/wire"
)

// The live runtime is transport.Node: one protocol node on a TCP
// endpoint. These tests hold it to the Env contract this package
// writes down — Start first, timers that fire and cancel, Defer
// completions that neither delay timers nor outlive Run — on loopback.

type testMsg struct{ payload string }

func (testMsg) Type() string  { return "test" }
func (testMsg) WireSize() int { return 8 }

const testCodec = "smr-test"

func init() {
	wire.NewCodec(testCodec, wire.Row[testMsg](1, func(m *testMsg, c *wire.Coder) { c.Str(&m.payload) }))
}

// newLive builds node id on a loopback endpoint without running it.
func newLive(t *testing.T, id smr.NodeID, nd smr.Node) *transport.Node {
	t.Helper()
	n, err := transport.NewNode(id, nd, "127.0.0.1:0", nil, transport.WithCodec(testCodec))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runLive runs n on its own goroutine; the channel closes once Run has
// returned. Cleanup stops the node and waits for that.
func runLive(t *testing.T, n *transport.Node) <-chan struct{} {
	ran := make(chan struct{})
	go func() {
		n.Run()
		close(ran)
	}()
	t.Cleanup(func() {
		n.Stop()
		<-ran
	})
	return ran
}

func startLive(t *testing.T, id smr.NodeID, nd smr.Node) *transport.Node {
	t.Helper()
	n := newLive(t, id, nd)
	runLive(t, n)
	return n
}

// probe is a minimal smr.Node that records events and can act on them.
type probe struct {
	mu     sync.Mutex
	events []smr.Event
	env    smr.Env
	onStep func(env smr.Env, ev smr.Event)
}

func (p *probe) Init(env smr.Env) { p.env = env }
func (p *probe) Step(ev smr.Event) {
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
	if p.onStep != nil {
		p.onStep(p.env, ev)
	}
}

func (p *probe) snapshot() []smr.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]smr.Event(nil), p.events...)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLiveRuntimeStartDeliversStartFirst(t *testing.T) {
	p := &probe{}
	n := startLive(t, 0, p)
	n.Submit(smr.Invoke{Op: []byte("op")})
	waitFor(t, func() bool { return len(p.snapshot()) >= 2 }, "events")
	evs := p.snapshot()
	if _, ok := evs[0].(smr.Start); !ok {
		t.Errorf("first event = %T, want smr.Start", evs[0])
	}
	if inv, ok := evs[1].(smr.Invoke); !ok || string(inv.Op) != "op" {
		t.Errorf("second event = %#v, want Invoke{op}", evs[1])
	}
}

func TestLiveRuntimeSendBetweenNodes(t *testing.T) {
	sender := &probe{}
	receiver := &probe{}
	// The sender forwards every Invoke payload to node 1.
	sender.onStep = func(env smr.Env, ev smr.Event) {
		if inv, ok := ev.(smr.Invoke); ok {
			env.Send(1, &testMsg{payload: string(inv.Op)})
		}
	}
	a := startLive(t, 0, sender)
	b := startLive(t, 1, receiver)
	a.AddPeer(1, b.Addr())
	a.Submit(smr.Invoke{Op: []byte("ping")})
	waitFor(t, func() bool {
		for _, ev := range receiver.snapshot() {
			if r, ok := ev.(smr.Recv); ok {
				m, ok := r.Msg.(*testMsg)
				return ok && r.From == 0 && m.payload == "ping"
			}
		}
		return false
	}, "relayed message")
}

func TestLiveRuntimeTimerFiresAndCancels(t *testing.T) {
	p := &probe{}
	var cancelled atomic.Uint64
	p.onStep = func(env smr.Env, ev smr.Event) {
		if _, ok := ev.(smr.Start); ok {
			env.SetTimer(5*time.Millisecond, "fires")
			id := env.SetTimer(10*time.Millisecond, "cancelled")
			cancelled.Store(uint64(id))
			env.CancelTimer(id)
		}
	}
	startLive(t, 0, p)
	waitFor(t, func() bool {
		for _, ev := range p.snapshot() {
			if tf, ok := ev.(smr.TimerFired); ok && tf.Kind == "fires" {
				return true
			}
		}
		return false
	}, "timer to fire")
	// Give the cancelled timer's deadline time to pass, then check it
	// never fired.
	time.Sleep(30 * time.Millisecond)
	for _, ev := range p.snapshot() {
		if tf, ok := ev.(smr.TimerFired); ok && uint64(tf.ID) == cancelled.Load() {
			t.Fatal("cancelled timer fired")
		}
	}
}

func TestLiveRuntimeStopTerminates(t *testing.T) {
	a, b := newLive(t, 0, &probe{}), newLive(t, 1, &probe{})
	ranA, ranB := runLive(t, a), runLive(t, b)
	done := make(chan struct{})
	go func() {
		a.Stop()
		b.Stop()
		<-ranA
		<-ranB
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate the nodes")
	}
	// Submitting to a stopped node must neither panic nor block.
	a.Submit(smr.Invoke{Op: []byte("late")})
}

func TestLiveRuntimeNowAdvances(t *testing.T) {
	p := &probe{}
	var first time.Duration
	got := make(chan time.Duration, 1)
	p.onStep = func(env smr.Env, ev smr.Event) {
		switch ev.(type) {
		case smr.Start:
			first = env.Now()
		case smr.Invoke:
			got <- env.Now() - first
		}
	}
	n := startLive(t, 0, p)
	time.Sleep(10 * time.Millisecond)
	n.Submit(smr.Invoke{Op: []byte("x")})
	select {
	case d := <-got:
		if d <= 0 {
			t.Errorf("Now did not advance: delta %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no invoke step")
	}
}

// TestLiveStopIdempotent covers the restart-misbehavior satellite: a
// second Stop must be a no-op, not a double-close panic.
func TestLiveStopIdempotent(t *testing.T) {
	n := newLive(t, 0, &deferChainNode{})
	ran := runLive(t, n)
	n.Stop()
	n.Stop()
	<-ran
}

// TestLiveStopWithoutStart: stopping a node that never ran must not
// hang or panic (no goroutines to wait for).
func TestLiveStopWithoutStart(t *testing.T) {
	n := newLive(t, 0, &deferChainNode{})
	n.Stop()
	n.Stop()
}

// deferNode starts one slow deferred job plus a short timer and
// records the order in which the loop sees their events.
type deferNode struct {
	env     smr.Env
	workGo  chan struct{} // closed when work starts
	done    chan string   // event order as seen by Step
	workDur time.Duration
}

func (n *deferNode) Init(env smr.Env) { n.env = env }
func (n *deferNode) Step(ev smr.Event) {
	switch ev := ev.(type) {
	case smr.Start:
		n.env.Defer("slow-verify",
			func() {
				close(n.workGo)
				time.Sleep(n.workDur)
			},
			func() { n.done <- "async" })
		n.env.SetTimer(time.Millisecond, "tick")
	case smr.TimerFired:
		n.done <- "timer:" + ev.Kind
	case smr.Async:
		ev.Apply()
	}
}

// TestLiveDeferDoesNotDelayTimers is the event-loop liveness property
// the async crypto pipeline exists for: a slow deferred job must not
// delay timer delivery. Before the pipeline, a handler performing the
// same work inline would have stalled the loop past the timer.
func TestLiveDeferDoesNotDelayTimers(t *testing.T) {
	node := &deferNode{
		workGo:  make(chan struct{}),
		done:    make(chan string, 2),
		workDur: 300 * time.Millisecond,
	}
	startLive(t, 0, node)

	select {
	case <-node.workGo:
	case <-time.After(5 * time.Second):
		t.Fatal("deferred work never started")
	}
	var order []string
	for i := 0; i < 2; i++ {
		select {
		case ev := <-node.done:
			order = append(order, ev)
		case <-time.After(5 * time.Second):
			t.Fatalf("saw only %v", order)
		}
	}
	if order[0] != "timer:tick" || order[1] != "async" {
		t.Fatalf("event order = %v, want the timer before the slow completion", order)
	}
}

// stopDeferNode defers work that outlives the node.
type stopDeferNode struct {
	env     smr.Env
	started chan struct{}
	release chan struct{}
}

func (n *stopDeferNode) Init(env smr.Env) { n.env = env }
func (n *stopDeferNode) Step(ev smr.Event) {
	switch ev := ev.(type) {
	case smr.Start:
		n.env.Defer("outlives-node",
			func() {
				close(n.started)
				<-n.release
			},
			func() {})
	case smr.Async:
		ev.Apply()
	}
}

// TestLiveDeferStop: after Stop, Run returns only once in-flight
// deferred work has finished, and does not deadlock on it — the
// completion's blocking inbox send must yield to shutdown. (Whether a
// completion racing Stop still reaches Step is intentionally
// unspecified, like a message arriving mid-shutdown.)
func TestLiveDeferStop(t *testing.T) {
	node := &stopDeferNode{started: make(chan struct{}), release: make(chan struct{})}
	n := newLive(t, 0, node)
	ran := runLive(t, n)
	<-node.started
	n.Stop()
	select {
	case <-ran:
		t.Fatal("Run returned while deferred work was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(node.release)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked on in-flight deferred work")
	}
}

// deferChainNode keeps a fixed number of Defer chains alive: every
// completion immediately submits the next link. It maximizes the
// window in which a Defer's WaitGroup Add can race the shutdown's Wait.
type deferChainNode struct {
	env     smr.Env
	applied atomic.Int64
}

func (n *deferChainNode) Init(env smr.Env) { n.env = env }
func (n *deferChainNode) Step(ev smr.Event) {
	switch e := ev.(type) {
	case smr.Start:
		for i := 0; i < 4; i++ {
			n.spawn()
		}
	case smr.Async:
		e.Apply()
	}
}

func (n *deferChainNode) spawn() {
	n.env.Defer("chain", runtime.Gosched, func() {
		n.applied.Add(1)
		n.spawn()
	})
}

// TestLiveDeferStopStress races continuous Defer traffic against Stop
// across many short-lived nodes. Under -race a Defer adding to a
// WaitGroup the shutdown is already waiting on reports a misuse; the
// node adds only from goroutines that hold a count, or from its own
// loop before it waits, so the shutdown is race-free by construction.
func TestLiveDeferStopStress(t *testing.T) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		node := &deferChainNode{}
		n := newLive(t, 0, node)
		ran := runLive(t, n)
		// Let the chains spin briefly so Stop lands mid-flight.
		time.Sleep(time.Duration(i%3) * time.Millisecond)
		n.Stop()
		<-ran
		// Once Run has returned, no deferred goroutine may still apply:
		// the counter must be quiescent.
		before := node.applied.Load()
		time.Sleep(2 * time.Millisecond)
		if after := node.applied.Load(); before != after {
			t.Fatalf("iteration %d: deferred work still completing after Run returned (%d -> %d)", i, before, after)
		}
	}
}
