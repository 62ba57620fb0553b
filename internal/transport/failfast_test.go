package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
)

// Tests for fail-fast detection: a peer whose process died closes its
// connections and its kernel refuses the redial, and that — unlike
// silence — is reported at once. Everything that is not that (a dropped
// connection whose redial is accepted, a peer that has not booted yet)
// stays on the silence path.

// healthLog records health events in delivery order.
type healthLog struct {
	sinkNode
	mu     sync.Mutex
	events []smr.Event
	wake   chan struct{}
}

func newHealthLog() *healthLog { return &healthLog{wake: make(chan struct{}, 1)} }

func (h *healthLog) Step(ev smr.Event) {
	switch ev.(type) {
	case smr.PeerDown, smr.PeerUp:
		h.mu.Lock()
		h.events = append(h.events, ev)
		h.mu.Unlock()
		select {
		case h.wake <- struct{}{}:
		default:
		}
	default:
		h.sinkNode.Step(ev)
	}
}

func (h *healthLog) snapshot() []smr.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]smr.Event(nil), h.events...)
}

// waitEvents blocks until at least n health events were delivered.
func (h *healthLog) waitEvents(t *testing.T, n int, within time.Duration) []smr.Event {
	t.Helper()
	deadline := time.After(within)
	for {
		if evs := h.snapshot(); len(evs) >= n {
			return evs
		}
		select {
		case <-h.wake:
		case <-deadline:
			t.Fatalf("%d health events after %v, want %d: %v", len(h.snapshot()), within, n, h.snapshot())
		}
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// The probe settings of these tests: an interval and a silence timeout
// long enough that nothing here can be the silence path by accident.
const (
	slowProbe   = 400 * time.Millisecond
	slowTimeout = 3 * time.Second
)

func startNode(t *testing.T, id smr.NodeID, nd smr.Node, addr string, peers map[smr.NodeID]string, opts ...Option) *Node {
	t.Helper()
	n, err := NewNode(id, nd, addr, peers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	go n.Run()
	t.Cleanup(n.Stop)
	return n
}

func waitPonged(t *testing.T, n *Node, peer smr.NodeID) {
	t.Helper()
	waitFor(t, func() bool { return n.Stats().Peers[peer].RTT > 0 }, "first pong")
}

// TestStoppedPeerIsReportedAtOnce: with a 400 ms probe and a 3 s silence
// timeout, a stopped peer is reported in well under one probe interval
// — the connection closed and the redial was refused.
func TestStoppedPeerIsReportedAtOnce(t *testing.T) {
	for _, secure := range []bool{false, true} {
		name := "plaintext"
		if secure {
			name = "tls"
		}
		t.Run(name, func(t *testing.T) {
			hl := newHealthLog()
			peers := map[smr.NodeID]string{0: freeAddr(t), 1: freeAddr(t)}
			optsFor := func(id smr.NodeID) []Option {
				o := []Option{WithKeepalive(slowProbe, slowTimeout)}
				if secure {
					o = append(o, WithTLS(autoTLS(t, testSuite(), id)))
				}
				return o
			}
			a := startNode(t, 0, hl, peers[0], peers, optsFor(0)...)
			b := startNode(t, 1, &sinkNode{}, peers[1], peers, optsFor(1)...)
			waitPonged(t, a, 1)
			// An established connection is one that has lived a while.
			time.Sleep(2 * dialBackoffMin)

			stopped := time.Now()
			b.Stop()
			evs := hl.waitEvents(t, 1, slowProbe/4)
			if d, ok := evs[0].(smr.PeerDown); !ok || d.Peer != 1 {
				t.Fatalf("first event %#v, want PeerDown{1}", evs[0])
			}
			t.Logf("PeerDown %v after Stop", time.Since(stopped))
			if a.Stats().Peers[1].Up {
				t.Error("stats still report the peer up")
			}
			// The last pong is only moments old: the next probe round
			// must not take it for an answer and revive the peer.
			time.Sleep(slowProbe + slowProbe/4)
			if evs := hl.snapshot(); len(evs) != 1 {
				t.Fatalf("events after the verdict: %v", evs)
			}
			// A new process on the same address does.
			startNode(t, 1, &sinkNode{}, peers[1], peers, optsFor(1)...)
			evs = hl.waitEvents(t, 2, 5*time.Second)
			if u, ok := evs[1].(smr.PeerUp); !ok || u.Peer != 1 {
				t.Fatalf("second event %#v, want PeerUp{1}", evs[1])
			}
		})
	}
}

// TestDroppedConnectionIsNotDeath: a peer that drops our connection but
// accepts the redial is alive; no event, and pongs resume.
func TestDroppedConnectionIsNotDeath(t *testing.T) {
	hl := newHealthLog()
	peers := map[smr.NodeID]string{0: freeAddr(t), 1: freeAddr(t)}
	a := startNode(t, 0, hl, peers[0], peers, WithKeepalive(20*time.Millisecond, slowTimeout))
	b := startNode(t, 1, &sinkNode{}, peers[1], peers)
	waitPonged(t, a, 1)
	time.Sleep(2 * dialBackoffMin)

	for round := 0; round < 3; round++ {
		b.mu.Lock()
		for c := range b.inbound {
			c.Close()
		}
		b.mu.Unlock()
		before := a.Stats().Peers[1].LastSeen
		waitFor(t, func() bool { return a.Stats().Peers[1].LastSeen > before+100*time.Millisecond },
			"pongs over the redialed connection")
	}
	if evs := hl.snapshot(); len(evs) != 0 {
		t.Fatalf("health events for a peer that stayed up: %v", evs)
	}
}

// TestBootOrderRaisesNoAlarm: nodes of a cluster started one after the
// other, in either order, see each other's ports refuse connections
// before the first one succeeds. That is boot, not death.
func TestBootOrderRaisesNoAlarm(t *testing.T) {
	const n = 3
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		peers := map[smr.NodeID]string{}
		for i := 0; i < n; i++ {
			peers[smr.NodeID(i)] = freeAddr(t)
		}
		logs := make([]*healthLog, n)
		nodes := make([]*Node, n)
		for _, i := range order {
			logs[i] = newHealthLog()
			nodes[i] = startNode(t, smr.NodeID(i), logs[i], peers[smr.NodeID(i)], peers,
				WithKeepalive(20*time.Millisecond, slowTimeout))
			time.Sleep(150 * time.Millisecond) // several refused dials and backoffs
		}
		for i, nd := range nodes {
			for j := 0; j < n; j++ {
				if j != i {
					waitPonged(t, nd, smr.NodeID(j))
				}
			}
		}
		for i, l := range logs {
			if evs := l.snapshot(); len(evs) != 0 {
				t.Errorf("boot order %v: node %d got %v", order, i, evs)
			}
		}
		for _, nd := range nodes {
			nd.Stop()
		}
	}
}

// TestHealthEventsAlternateUnderChurn: a peer stopped and restarted in
// a loop, at intervals that race the probe ticks, the redials and the
// pongs, yields events that strictly alternate down, up, down, … and
// end in the state the health record reports. Run under -race.
func TestHealthEventsAlternateUnderChurn(t *testing.T) {
	hl := newHealthLog()
	peers := map[smr.NodeID]string{0: freeAddr(t), 1: freeAddr(t)}
	a := startNode(t, 0, hl, peers[0], peers, WithKeepalive(10*time.Millisecond, 60*time.Millisecond))
	var b *Node
	for round := 0; round < 12; round++ {
		b = startNode(t, 1, &sinkNode{}, peers[1], peers)
		time.Sleep(time.Duration(5+17*round%90) * time.Millisecond)
		b.Stop()
		time.Sleep(time.Duration(3+29*round%70) * time.Millisecond)
	}
	b = startNode(t, 1, &sinkNode{}, peers[1], peers)
	// The record turns up before its PeerUp reaches the loop, so wait for
	// the event too: a wrong final event still times out here.
	waitFor(t, func() bool {
		evs := hl.snapshot()
		if len(evs) == 0 {
			return false
		}
		_, up := evs[len(evs)-1].(smr.PeerUp)
		return a.Stats().Peers[1].Up && up
	}, "peer up at the end, in the record and in the last event")
	a.Stop() // no further events

	evs := hl.snapshot()
	if len(evs) == 0 {
		t.Fatal("no health events at all")
	}
	for i, ev := range evs {
		_, down := ev.(smr.PeerDown)
		if down != (i%2 == 0) {
			t.Fatalf("event %d of %v breaks the down/up alternation", i, evs)
		}
	}
	if len(evs)%2 != 0 {
		t.Fatalf("the peer ended up, but the last event is a PeerDown: %v", evs)
	}
	t.Logf("%d transitions over 12 restarts", len(evs))
}
