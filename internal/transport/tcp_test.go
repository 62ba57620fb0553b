package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 1000),
		make([]byte, 1<<16),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(want))
		}
		scratch = got
	}
	if _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("trailing read: got %v, want io.EOF", err)
	}
}

func TestFrameBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	first, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadFrame(&buf, first)
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != "abc" {
		t.Fatalf("second frame = %q", second)
	}
	// The smaller second frame must have reused the first's storage.
	if cap(second) != cap(first) {
		t.Errorf("buffer not reused: cap %d vs %d", cap(second), cap(first))
	}
}

func TestFrameShortReads(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello, world")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Truncate at every prefix length: a cut header reads as EOF (or
	// ErrUnexpectedEOF past the first byte), a cut payload must always
	// be ErrUnexpectedEOF — never a short success.
	for cut := 0; cut < len(whole); cut++ {
		_, err := ReadFrame(bytes.NewReader(whole[:cut]), nil)
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Errorf("cut=0: got %v, want io.EOF", err)
			}
		default:
			if err != io.ErrUnexpectedEOF {
				t.Errorf("cut=%d: got %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	}
}

func TestFrameOversize(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("write oversize: got %v", err)
	}
	// A hostile length prefix must be rejected before allocation.
	hostile := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hostile), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("read hostile prefix: got %v", err)
	}
}

// ---------------------------------------------------------------------------
// TCP node
// ---------------------------------------------------------------------------

// sinkNode records received messages.
type sinkNode struct {
	mu    sync.Mutex
	recvd []smr.Recv
}

func (s *sinkNode) Init(env smr.Env) {}
func (s *sinkNode) Step(ev smr.Event) {
	if r, ok := ev.(smr.Recv); ok {
		s.mu.Lock()
		s.recvd = append(s.recvd, r)
		s.mu.Unlock()
	}
}

func (s *sinkNode) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recvd)
}

// newPair starts two connected nodes and returns them with a cleanup.
func newPair(t *testing.T) (a, b *Node, sa, sb *sinkNode) {
	t.Helper()
	sa, sb = &sinkNode{}, &sinkNode{}
	peers := map[smr.NodeID]string{}
	a, err := NewNode(0, sa, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewNode(1, sb, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	peers[0] = a.Addr()
	peers[1] = b.Addr()
	go a.Run()
	go b.Run()
	t.Cleanup(func() {
		a.Stop()
		b.Stop()
	})
	return a, b, sa, sb
}

func testMsg(sn uint64) smr.Message {
	return &xpaxos.MsgCommit{Order: xpaxos.Order{Kind: xpaxos.KindCommit, SN: smr.SeqNum(sn), Sig: []byte("sig")}}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNodeSendReceive(t *testing.T) {
	a, _, sa, sb := newPair(t)
	a.Send(1, testMsg(7))
	waitFor(t, func() bool { return sb.count() == 1 }, "message at b")
	sb.mu.Lock()
	got := sb.recvd[0]
	sb.mu.Unlock()
	if got.From != 0 {
		t.Errorf("From = %d, want 0", got.From)
	}
	m, ok := got.Msg.(*xpaxos.MsgCommit)
	if !ok || m.Order.SN != 7 || string(m.Order.Sig) != "sig" {
		t.Errorf("message did not round-trip: %#v", got.Msg)
	}
	if sa.count() != 0 {
		t.Errorf("a received %d unexpected messages", sa.count())
	}
}

// TestNodeSkipsRetiredFrameKind: a frame of kind 3, which once carried
// a group-multiplexed message and is now retired, is skipped like any
// unknown kind. The message frames around it are delivered and the
// connection stays open.
func TestNodeSkipsRetiredFrameKind(t *testing.T) {
	sink := &sinkNode{}
	n, err := NewNode(0, sink, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	go n.Run()
	defer n.Stop()

	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := func(sn uint64, group bool) []byte {
		buf := wire.New(64)
		buf.I64(1)
		if group {
			buf.U32(3)
		}
		if err := xpaxos.AppendMessage(buf, testMsg(sn)); err != nil {
			t.Fatal(err)
		}
		return buf.Done()
	}
	if err := WriteFrameKind(c, 3, frame(1, true)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(c, frame(2, false)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 1 }, "the kind-0 message")
	if err := WriteFrame(c, frame(3, false)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 2 }, "a second message on the same connection")
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, want := range []smr.SeqNum{2, 3} {
		m, ok := sink.recvd[i].Msg.(*xpaxos.MsgCommit)
		if !ok || m.Order.SN != want || sink.recvd[i].From != 1 {
			t.Fatalf("delivery %d = %+v, want a commit for sn %d from 1", i, sink.recvd[i], want)
		}
	}
}

func TestNodeConcurrentSends(t *testing.T) {
	a, _, _, sb := newPair(t)
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Send(1, testMsg(uint64(g*per+i)))
			}
		}(g)
	}
	wg.Wait()
	// TCP is reliable and all sends share node a's single connection to
	// b: every frame must arrive intact, in some order.
	waitFor(t, func() bool { return sb.count() == goroutines*per }, "all concurrent sends")
	seen := make(map[smr.SeqNum]bool)
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, r := range sb.recvd {
		m, ok := r.Msg.(*xpaxos.MsgCommit)
		if !ok {
			t.Fatalf("unexpected message type %T", r.Msg)
		}
		if seen[m.Order.SN] {
			t.Fatalf("duplicate frame for sn %d", m.Order.SN)
		}
		seen[m.Order.SN] = true
	}
}

func TestNodeSendToUnknownPeerDrops(t *testing.T) {
	a, _, _, _ := newPair(t)
	a.Send(99, testMsg(1)) // no address: must not panic or block
}

// TestNodeAddPeer: a running node learns a peer built after it — the
// way a client joins a running cluster — while its probe loop walks the
// peer map. The map given to NewNode is shared with the caller and must
// stay as it was.
func TestNodeAddPeer(t *testing.T) {
	sa, sb := &sinkNode{}, &sinkNode{}
	probe := WithKeepalive(10*time.Millisecond, time.Second)
	shared := map[smr.NodeID]string{}
	a, err := NewNode(0, sa, "127.0.0.1:0", shared, probe)
	if err != nil {
		t.Fatal(err)
	}
	shared[0] = a.Addr()
	go a.Run()
	t.Cleanup(a.Stop)
	b := startNode(t, 1, sb, "127.0.0.1:0", nil, probe)

	a.AddPeer(1, b.Addr())
	a.Send(1, testMsg(1))
	waitFor(t, func() bool { return sb.count() == 1 }, "a's send at b")
	waitPonged(t, a, 1) // the probe loop found b too
	if len(shared) != 1 || shared[0] != a.Addr() {
		t.Errorf("AddPeer wrote the shared peer map: %v", shared)
	}
}

func TestNodeTeardownWithInflight(t *testing.T) {
	a, b, _, sb := newPair(t)
	// Blast messages from a background goroutine while tearing both
	// nodes down; Stop must not deadlock or panic, and Run must return.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				a.Send(1, testMsg(uint64(i)))
			}
		}
	}()
	waitFor(t, func() bool { return sb.count() > 10 }, "traffic to flow")
	doneStop := make(chan struct{})
	go func() {
		b.Stop()
		a.Stop()
		close(doneStop)
	}()
	select {
	case <-doneStop:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked with in-flight messages")
	}
	close(stop)
	wg.Wait()
}

// TestStopReleasesGoroutines checks Serve/Stop goroutine hygiene: the
// accept loop, every inbound readLoop and every peer writer must exit
// on Stop, without waiting for the remote end to hang up.
func TestStopReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b, sa, sb := newPair(t)
	// Traffic in both directions creates inbound and outbound
	// connections (and thus readLoop + writeLoop goroutines) on each.
	a.Send(1, testMsg(1))
	b.Send(0, testMsg(2))
	waitFor(t, func() bool { return sa.count() == 1 && sb.count() == 1 }, "cross traffic")
	a.Stop()
	b.Stop()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 },
		fmt.Sprintf("goroutines to return to ~%d (now %d)", before, runtime.NumGoroutine()))
}

// timerCancelNode cancels every timer right after it is delivered (a
// no-op by contract) — the regression here is that this used to leave a
// permanent tombstone per timer in the cancelled map.
type timerCancelNode struct {
	env   smr.Env
	fired chan smr.TimerID
}

func (tn *timerCancelNode) Init(env smr.Env) { tn.env = env }
func (tn *timerCancelNode) Step(ev smr.Event) {
	switch ev := ev.(type) {
	case smr.Start:
		// A cancelled-before-firing timer must leave no state behind.
		id := tn.env.SetTimer(time.Hour, "never")
		tn.env.CancelTimer(id)
		tn.env.SetTimer(time.Millisecond, "soon")
	case smr.TimerFired:
		tn.env.CancelTimer(ev.ID) // already delivered: must be a no-op
		select {
		case tn.fired <- ev.ID:
		default:
		}
	}
}

func TestCancelTimerLeavesNoTombstones(t *testing.T) {
	tn := &timerCancelNode{fired: make(chan smr.TimerID, 1)}
	n, err := NewNode(0, tn, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { n.Run(); close(done) }()
	select {
	case <-tn.fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	n.Stop()
	<-done // Run returned: timer maps are quiescent
	if pending, tombstones := n.timers.Sizes(); pending != 0 || tombstones != 0 {
		t.Errorf("timer maps leaked: pending=%d tombstones=%d", pending, tombstones)
	}
}

// TestSendDownPeerDoesNotBlock is the regression test for the old
// synchronous DialTimeout under Send: with an unreachable peer, a burst
// of sends must return immediately (the writer goroutine absorbs the
// dial), and overflow must be counted, not silent.
func TestSendDownPeerDoesNotBlock(t *testing.T) {
	// A listener that is closed right away yields an address that
	// refuses connections deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	downAddr := ln.Addr().String()
	ln.Close()

	sink := &sinkNode{}
	n, err := NewNode(0, sink, "127.0.0.1:0", map[smr.NodeID]string{1: downAddr})
	if err != nil {
		t.Fatal(err)
	}
	n.queueCap, n.dialTimeout = 8, 500*time.Millisecond
	go n.Run()
	defer n.Stop()

	const burst = 100
	start := time.Now()
	for i := 0; i < burst; i++ {
		n.Send(1, testMsg(uint64(i)))
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("Send burst to down peer took %v; event loop stalled", el)
	}
	st := n.Stats().Peers[1]
	if st.Queued > 8 {
		t.Errorf("queue depth %d exceeds cap 8", st.Queued)
	}
	// 100 sends, cap 8, at most one in flight in the writer: the rest
	// must be counted as drops.
	if st.Drops < burst-8-1 {
		t.Errorf("drops = %d, want >= %d", st.Drops, burst-8-1)
	}
}

// TestSlowPeerBoundedQueue covers the backpressure contract against a
// live but slow peer: the queue stays bounded, stale messages are shed
// with a counter, and everything sent is either delivered or counted.
func TestSlowPeerBoundedQueue(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var received atomic.Int64
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			if _, err := ReadFrame(br, nil); err != nil {
				return
			}
			received.Add(1)
			time.Sleep(2 * time.Millisecond) // a slow consumer
		}
	}()

	sink := &sinkNode{}
	n, err := NewNode(0, sink, "127.0.0.1:0", map[smr.NodeID]string{1: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	n.queueCap = 16
	go n.Run()
	defer n.Stop()

	const total = 200
	for i := 0; i < total; i++ {
		n.Send(1, testMsg(uint64(i)))
	}
	// Every message is accounted for: drained to the peer or counted as
	// a drop — never silently lost in an unbounded buffer.
	waitFor(t, func() bool {
		st := n.Stats().Peers[1]
		return st.Queued == 0 && received.Load()+int64(st.Drops) == total
	}, "all sends delivered or counted")
	if st := n.Stats().Peers[1]; st.Drops == 0 {
		t.Error("expected the bounded queue to shed load against a slow peer; drops = 0")
	}
}

// TestStopCountsInHandMessage is the regression test for writer drop
// accounting on shutdown: a message already dequeued by pop() and held
// across dial backoff used to vanish silently when Stop cancelled the
// context — it never reached countDrops. Every send must end up
// delivered, queued, or counted as a drop.
func TestStopCountsInHandMessage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	downAddr := ln.Addr().String()
	ln.Close() // deterministic connection-refused

	const total = 5
	sink := &sinkNode{}
	n, err := NewNode(0, sink, "127.0.0.1:0", map[smr.NodeID]string{1: downAddr})
	if err != nil {
		t.Fatal(err)
	}
	n.queueCap = 64
	go n.Run()
	for i := 0; i < total; i++ {
		n.Send(1, testMsg(uint64(i)))
	}
	// Wait until the writer has dequeued the head message and parked in
	// dial backoff: the queue then shows total-1, with one in hand.
	waitFor(t, func() bool { return n.Stats().Peers[1].Queued == total-1 }, "writer to hold one message in hand")
	n.Stop()
	// The writer counts its in-hand message on its (asynchronous) exit
	// path; poll until it has.
	waitFor(t, func() bool { return n.Stats().Peers[1].Drops > 0 },
		"in-hand message to be counted on Stop")
	st := n.Stats().Peers[1]
	if got := int(st.Drops) + st.Queued; got != total {
		t.Errorf("accounting leak: queued(%d) + drops(%d) = %d, want %d",
			st.Queued, st.Drops, got, total)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("0=a:1,1=b:2,1000=c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := map[smr.NodeID]string{0: "a:1", 1: "b:2", 1000: "c:3"}
	if fmt.Sprint(peers) != fmt.Sprint(want) {
		t.Errorf("ParsePeers = %v, want %v", peers, want)
	}
	if _, err := ParsePeers("bogus"); err == nil {
		t.Error("ParsePeers accepted malformed input")
	}
}
