// Package transport runs a single protocol node over real TCP — the
// live runtime behind every deployed process, whose nodes
// internal/deploy assembles. Messages travel as length-prefixed frames
// (frame.go) whose payload is a fixed header (sender id) followed by a
// wire codec's tag+body encoding — no gob, no type descriptors, no
// reflection on the hot path. The codec is resolved by name from the
// protocol-agnostic registry (internal/wire): WithCodec selects the
// hosted protocol's codec, and the default is XPaxos. The transport
// itself knows nothing about any protocol's message types.
//
// Each peer has a dedicated writer goroutine fed by a bounded
// drop-oldest send queue (sendq.go): Send never dials and never blocks,
// so a down or slow peer cannot stall the replica event loop. Dialing,
// redialing with backoff, and write-side buffering all live in the
// writer. Drops are counted per peer and surfaced via PeerStats.
//
// Two optional hardening layers ride on top (ROADMAP: channel
// security + health probes):
//
//   - WithTLS upgrades every connection to mutual TLS 1.3 with
//     per-node certificates bound to node ids (tls.go), and the read
//     loop enforces that a frame's claimed sender matches the
//     authenticated identity;
//   - WithKeepalive runs ping/pong probes (frame.go control frames)
//     over each replica peer's connection, tracking per-peer RTT and
//     last-seen, and delivers smr.PeerDown / smr.PeerUp transitions
//     into the node's inbox — so a protocol can suspect a silent peer
//     at probe-timeout granularity instead of waiting for a
//     retransmission timeout. A peer whose process died is reported
//     sooner still: its connection closes and the peer's kernel refuses
//     the redial, which is evidence, not silence (see refusedByPeer).
package transport

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// DefaultCodec is the wire codec used when WithCodec is not given.
// It matches the registry name of the XPaxos codec without importing
// the package (the hosting binary registers whichever codecs it links).
const DefaultCodec = "xpaxos"

// Limits and timings shared by every node.
const (
	// DefaultSendQueueCap bounds each peer's send queue, in messages.
	DefaultSendQueueCap = 1024
	// DefaultDialTimeout bounds one dial attempt to a peer (and one TLS
	// handshake, on either side).
	DefaultDialTimeout = 2 * time.Second

	// Redial backoff bounds: after a failed dial the writer waits
	// dialBackoffMin, doubling up to dialBackoffMax, before retrying.
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 1 * time.Second

	// writeBufSize is the per-connection write buffer; the writer
	// flushes whenever its queue drains, so buffering only coalesces
	// back-to-back frames and never delays a lone message.
	writeBufSize = 64 << 10

	// maxPingEcho bounds the ping payload a node echoes back. Probes
	// carry 8 bytes; anything larger is hostile or corrupt and is not
	// worth amplifying.
	maxPingEcho = 64
)

// Option customizes a Node.
type Option func(*Node)

// WithCodec selects the registered wire codec (internal/wire) used to
// encode and decode message frames. It must match the hosted protocol
// node's message types — and the peers' choice — or every message is
// rejected as malformed. NewNode fails if no codec is registered
// under the name, which usually means the binary never imported the
// protocol package whose init registers it.
func WithCodec(name string) Option {
	return func(nd *Node) { nd.codecName = name }
}

// WithTLS enables mutual TLS on every connection using the given
// material (see AutoTLS and LoadTLS). Omitting the option — the
// insecure opt-out used by benchmarks and closed testbeds — keeps the
// transport plaintext.
func WithTLS(t *TLS) Option {
	return func(nd *Node) { nd.tls = t }
}

// WithKeepalive enables connection-level health probing: every
// interval the node pings each replica peer over its outbound
// connection (dialing it if necessary) and tracks the pong's RTT and
// arrival time. A peer silent for longer than timeout — or whose
// established connection closed and whose kernel refused the redial —
// is reported to the hosted protocol node as an smr.PeerDown event
// through the inbox; a pong after that reports smr.PeerUp. A zero
// timeout defaults to 3x the interval.
func WithKeepalive(interval, timeout time.Duration) Option {
	return func(nd *Node) {
		if interval <= 0 {
			return
		}
		if timeout <= 0 {
			timeout = 3 * interval
		}
		nd.probeInterval = interval
		nd.probeTimeout = timeout
	}
}

// Node hosts one protocol node on a TCP endpoint.
type Node struct {
	id    smr.NodeID
	node  smr.Node
	peers map[smr.NodeID]string

	inbox  chan smr.Event
	ctx    context.Context
	cancel context.CancelFunc

	stopOnce sync.Once
	ln       net.Listener
	start    time.Time

	// queueCap and dialTimeout hold the defaults; tests lower them
	// before Run.
	queueCap    int
	dialTimeout time.Duration

	codecName string
	codec     wire.Codec

	tls           *TLS
	probeInterval time.Duration
	probeTimeout  time.Duration
	// probeKick asks the probe loop for a round ahead of its next tick:
	// a writer has evidence that a peer died. Capacity 1 coalesces.
	probeKick chan struct{}

	mu      sync.Mutex
	stopped bool
	conns   map[smr.NodeID]*peerConn
	inbound map[net.Conn]struct{}

	// timers is owned by the node goroutine: Set/Cancel run from Step,
	// Deliver from the Run loop.
	timers *smr.TimerSet

	wg sync.WaitGroup
}

// peerConn is one peer's outbound path: a bounded queue drained by a
// writer goroutine, plus the peer's keepalive health record. The
// connection itself is owned by the writer; the mutex only guards the
// handle so Stop (and write-error recovery) can close it from outside.
type peerConn struct {
	id   smr.NodeID
	addr string
	q    *sendQueue

	// pingPending asks the writer to emit one keepalive ping on its
	// next pass (set by the probe loop, cleared by the writer).
	pingPending atomic.Bool

	mu   sync.Mutex
	c    net.Conn
	shut bool

	// Health record. pongLoop and the writer record observations
	// (lastSeen, rtt; refused); the up/down judgement — and thus every
	// PeerDown/PeerUp event — is made only by the probe loop
	// (judgeHealth), so transitions are totally ordered and the
	// delivered events can never invert. Guarded by hmu; Stats reads it
	// too.
	hmu      sync.Mutex
	lastSeen time.Duration
	rtt      time.Duration
	up       bool
	est      smr.RTTEstimator
	// refused: an established connection was lost and the peer's kernel
	// refused the immediate redial (markRefused). A later pong clears it.
	refused bool
	// downAt is when the last down verdict fell; only a pong newer than
	// it brings the peer back up.
	downAt time.Duration
}

// markSeen records a pong observation at now with the given round-trip
// time. It deliberately makes no up/down decision: if it also flipped
// state, a pong racing the probe loop's timeout check could publish
// PeerUp before the corresponding PeerDown, leaving consumers'
// level state permanently inverted for a healthy peer.
func (pc *peerConn) markSeen(now, rtt time.Duration) {
	pc.hmu.Lock()
	pc.lastSeen = now
	pc.rtt = rtt
	pc.est.Observe(rtt)
	pc.refused = false
	pc.hmu.Unlock()
}

// markRefused records that the peer's process is gone: the writer lost
// an established connection and the redial was refused. Like markSeen
// it only records; the probe loop judges.
func (pc *peerConn) markRefused() {
	pc.hmu.Lock()
	pc.refused = true
	pc.hmu.Unlock()
}

// healthTransition is judgeHealth's verdict for one probe tick.
type healthTransition int

const (
	healthSteady healthTransition = iota
	healthWentDown
	healthWentUp
)

// judgeHealth makes the probe loop's up/down decision: down when an
// up peer has been silent past its deadline or has refused a redial,
// up when a down peer has answered since the verdict and within the
// deadline (a refused peer's last pong may be only moments old, and
// must not revive it). The deadline is per-peer — the RTT estimator
// stretches the configured timeout for peers whose measured round
// trips need it, so one timeout serves both LAN and WAN links — but
// never shrinks below it. Called only from the probe loop, so at most
// one transition is in flight at a time.
func (pc *peerConn) judgeHealth(now, interval, timeout time.Duration) (healthTransition, time.Duration) {
	pc.hmu.Lock()
	defer pc.hmu.Unlock()
	deadline := pc.est.Deadline(interval, timeout)
	silent := now - pc.lastSeen
	refused := pc.refused
	pc.refused = false
	switch {
	case pc.up && (refused || silent > deadline):
		pc.up = false
		pc.downAt = now
		return healthWentDown, silent
	case !pc.up && pc.lastSeen > pc.downAt && silent <= deadline:
		pc.up = true
		return healthWentUp, pc.rtt
	}
	return healthSteady, 0
}

// health snapshots the record for Stats.
func (pc *peerConn) health() (up bool, rtt, lastSeen time.Duration) {
	pc.hmu.Lock()
	defer pc.hmu.Unlock()
	return pc.up, pc.rtt, pc.lastSeen
}

// setConn publishes a freshly dialed connection. If shutdown already
// ran — a dial completing concurrently with Stop would otherwise
// publish a connection nobody closes, and a writer stuck in WriteFrame
// on it would hang Stop — the connection is closed instead and the
// writer must exit.
func (pc *peerConn) setConn(c net.Conn) bool {
	pc.mu.Lock()
	if pc.shut {
		pc.mu.Unlock()
		c.Close()
		return false
	}
	pc.c = c
	pc.mu.Unlock()
	return true
}

// closeConn drops the current connection (write-error recovery); the
// writer will redial.
func (pc *peerConn) closeConn() {
	pc.mu.Lock()
	if pc.c != nil {
		pc.c.Close()
		pc.c = nil
	}
	pc.mu.Unlock()
}

// dropConn closes c if it is still the current connection and reports
// whether it was: the pong reader saw the stream end before the writer
// tried to use it. False means the writer or Stop got there first.
func (pc *peerConn) dropConn(c net.Conn) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c != c {
		return false
	}
	c.Close()
	pc.c = nil
	return true
}

// hasConn reports whether a connection is currently published.
func (pc *peerConn) hasConn() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.c != nil
}

// shutdown closes the current connection and latches the peer closed.
func (pc *peerConn) shutdown() {
	pc.mu.Lock()
	pc.shut = true
	if pc.c != nil {
		pc.c.Close()
		pc.c = nil
	}
	pc.mu.Unlock()
}

// NewNode prepares a node bound to listenAddr; peers maps every node
// id (replicas and clients) to its address.
func NewNode(id smr.NodeID, node smr.Node, listenAddr string, peers map[smr.NodeID]string, opts ...Option) (*Node, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		id: id, node: node, peers: peers, ln: ln,
		inbox:       make(chan smr.Event, 4096),
		ctx:         ctx,
		cancel:      cancel,
		queueCap:    DefaultSendQueueCap,
		dialTimeout: DefaultDialTimeout,
		codecName:   DefaultCodec,
		conns:       make(map[smr.NodeID]*peerConn),
		inbound:     make(map[net.Conn]struct{}),
		timers:      smr.NewTimerSet(),
		start:       time.Now(),
		probeKick:   make(chan struct{}, 1),
	}
	for _, opt := range opts {
		opt(n)
	}
	codec, ok := wire.Lookup(n.codecName)
	if !ok {
		ln.Close()
		cancel()
		return nil, fmt.Errorf("transport: wire codec %q not registered (import the protocol package that provides it)", n.codecName)
	}
	n.codec = codec
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// AddPeer makes id reachable at addr: a node that joined after this one
// was built, such as a client of a running cluster. The peer map is
// copied, never written, so a map the caller shared at NewNode stays
// the caller's.
func (n *Node) AddPeer(id smr.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make(map[smr.NodeID]string, len(n.peers)+1)
	maps.Copy(peers, n.peers)
	peers[id] = addr
	n.peers = peers
}

// Run starts the accept loop, the keepalive prober (when enabled) and
// the node's event loop; it blocks until Stop.
func (n *Node) Run() {
	n.wg.Add(1)
	go n.acceptLoop()
	if n.probeInterval > 0 {
		n.wg.Add(1)
		go n.probeLoop()
	}
	n.node.Init(n)
	n.node.Step(smr.Start{})
	for {
		select {
		case <-n.ctx.Done():
			n.wg.Wait()
			return
		case ev := <-n.inbox:
			if tf, ok := ev.(smr.TimerFired); ok && !n.timers.Deliver(tf) {
				continue
			}
			n.node.Step(ev)
		}
	}
}

// Submit injects an event (e.g. smr.Invoke) into the node's loop.
func (n *Node) Submit(ev smr.Event) {
	select {
	case n.inbox <- ev:
	case <-n.ctx.Done():
	}
}

// Stop terminates the node: the listener, every inbound connection,
// and every peer writer. It is idempotent: redundant calls (e.g. a
// deferred Stop racing an explicit one) are no-ops.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.mu.Lock()
		n.stopped = true
		n.mu.Unlock()
		n.cancel()
		n.ln.Close()
		n.mu.Lock()
		for _, pc := range n.conns {
			pc.shutdown()
		}
		for c := range n.inbound {
			c.Close()
		}
		n.mu.Unlock()
	})
}

// PeerStats reports each peer's current send-queue depth, its
// cumulative drop count (queue evictions plus frames lost to write
// errors or shutdown), and — when keepalive probing is enabled — its
// health record. Peers that were never sent to or probed are absent.
type PeerStats struct {
	Queued int
	Drops  uint64
	// Up reports the prober's current judgement; RTT the last measured
	// probe round trip; LastSeen the Node.Now() timestamp of the last
	// pong. All three are zero-valued when probing is disabled.
	Up       bool
	RTT      time.Duration
	LastSeen time.Duration
}

// Stats aggregates a node's transport and protocol health counters.
type Stats struct {
	// Peers holds per-peer send statistics.
	Peers map[smr.NodeID]PeerStats
	// Intake reports the hosted protocol node's request-admission
	// health (nil when the node does not track intake — e.g. clients).
	Intake *smr.IntakeStats
}

// intakeReporter is implemented by hosted nodes that track request
// admission (e.g. xpaxos.Replica). The stats type is smr's, keeping
// this package protocol-agnostic.
type intakeReporter interface {
	IntakeStats() smr.IntakeStats
}

// Stats returns transport and intake statistics for monitoring and the
// bench harness.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	pcs := make(map[smr.NodeID]*peerConn, len(n.conns))
	for id, pc := range n.conns {
		pcs[id] = pc
	}
	n.mu.Unlock()
	peers := make(map[smr.NodeID]PeerStats, len(pcs))
	for id, pc := range pcs {
		depth, drops := pc.q.stats()
		up, rtt, seen := pc.health()
		peers[id] = PeerStats{Queued: depth, Drops: drops, Up: up, RTT: rtt, LastSeen: seen}
	}
	out := Stats{Peers: peers}
	if ir, ok := n.node.(intakeReporter); ok {
		st := ir.IntakeStats()
		out.Intake = &st
	}
	return out
}

// ---------------------------------------------------------------------------
// Inbound path
// ---------------------------------------------------------------------------

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if n.tls != nil {
			// Wrap now, handshake in the read loop: a peer stalling its
			// handshake must not block accept.
			conn = tls.Server(conn, n.tls.serverConfig())
		}
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			conn.Close()
			continue
		}
		n.inbound[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	// authID is the TLS-authenticated peer identity. Under plaintext it
	// stays -1: any claimed sender is accepted, as before.
	authID := smr.NodeID(-1)
	if n.tls != nil {
		tc, ok := conn.(*tls.Conn)
		if !ok {
			return
		}
		conn.SetDeadline(time.Now().Add(n.dialTimeout))
		if err := tc.HandshakeContext(n.ctx); err != nil {
			return
		}
		conn.SetDeadline(time.Time{})
		certs := tc.ConnectionState().PeerCertificates
		if len(certs) == 0 {
			return
		}
		id, ok := peerIDFromCert(certs[0])
		if !ok {
			return // a valid cluster cert must carry a node identity
		}
		authID = id
	}
	br := bufio.NewReader(conn)
	for {
		// Each frame gets a fresh buffer: the decoded message's byte
		// fields alias it, and the message outlives this iteration.
		kind, payload, err := ReadFrameKind(br, nil)
		if err != nil {
			return
		}
		switch kind {
		case FramePing:
			// Answer on the same connection the ping arrived on, so the
			// probe measures the channel the peer actually uses. The
			// read loop is this conn's only writer.
			if len(payload) > maxPingEcho {
				continue
			}
			if err := WriteFrameKind(conn, FramePong, payload); err != nil {
				return
			}
			continue
		case FramePong:
			continue // pongs belong on outbound conns (pongLoop)
		case FrameMsg:
		default:
			continue // unknown control frame: ignore for forward compat
		}
		rd := wire.NewReader(payload)
		from, ok := rd.I64()
		if !ok {
			return // malformed header: desynced peer, drop the conn
		}
		if authID >= 0 && smr.NodeID(from) != authID {
			return // claimed sender contradicts the TLS identity
		}
		msg, err := n.codec.Decode(payload[8:])
		if err != nil {
			return
		}
		select {
		case n.inbox <- smr.Recv{From: smr.NodeID(from), Msg: msg}:
		case <-n.ctx.Done():
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Outbound path
// ---------------------------------------------------------------------------

// Send implements smr.Env. It only enqueues: encoding, dialing and
// writing all happen on the peer's writer goroutine, so Send returns in
// O(1) regardless of peer health. Overflow evicts the oldest queued
// message (counted in Stats).
func (n *Node) Send(to smr.NodeID, m smr.Message) {
	pc := n.peer(to)
	if pc == nil {
		return
	}
	pc.q.push(m)
}

// peer returns to's peerConn, starting its writer on first use.
func (n *Node) peer(to smr.NodeID) *peerConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	if pc := n.conns[to]; pc != nil {
		return pc
	}
	addr, ok := n.peers[to]
	if !ok || n.stopped {
		return nil
	}
	pc := &peerConn{id: to, addr: addr, q: newSendQueue(n.queueCap)}
	// The health record starts optimistic: a peer is presumed up until
	// it stays silent past the probe timeout, so booting a cluster
	// does not open with a storm of PeerDown events.
	pc.lastSeen = n.Now()
	pc.up = true
	n.conns[to] = pc
	n.wg.Add(1)
	go n.writeLoop(pc)
	return pc
}

// dialPeer establishes a connection to pc's peer, running the TLS
// handshake when channel security is enabled. A handshake failure is
// a dial failure: the writer backs off and retries.
func (n *Node) dialPeer(d *net.Dialer, pc *peerConn) (net.Conn, error) {
	c, err := d.DialContext(n.ctx, "tcp", pc.addr)
	if err != nil {
		return nil, err
	}
	if n.tls == nil {
		return c, nil
	}
	tc := tls.Client(c, n.tls.clientConfig(pc.id))
	tc.SetDeadline(time.Now().Add(n.dialTimeout))
	if err := tc.HandshakeContext(n.ctx); err != nil {
		c.Close()
		return nil, err
	}
	tc.SetDeadline(time.Time{})
	return tc, nil
}

// writeLoop drains pc's queue onto its connection, (re)dialing as
// needed. A failed dial parks the loop in capped exponential backoff
// while the bounded queue absorbs — and, when full, sheds — new
// traffic. Frames are buffered and flushed when the queue drains, so
// bursts coalesce into few syscalls without delaying a lone message.
// Keepalive pings requested by the probe loop ride the same path —
// including the dial, so probing a peer with no pending traffic still
// establishes (and thereby tests) the channel.
//
// Every exit path accounts for what it abandons: the in-hand message
// already dequeued by pop and any frames accepted by the buffer since
// its last flush are counted as drops, so shutdown mid-backoff never
// loses a message silently.
func (n *Node) writeLoop(pc *peerConn) {
	defer n.wg.Done()
	defer pc.closeConn()
	var bw *bufio.Writer
	// unflushed counts frames accepted by bw since its last successful
	// flush: if the connection fails they die in the buffer, and the
	// drop counter must cover them too ("counted, not silent"). It can
	// overcount — bufio flushes transparently when full, so some may
	// already be on the wire — but never undercounts.
	var unflushed uint64
	buf := wire.New(4 << 10) // reused per-frame encode buffer
	backoff := dialBackoffMin
	dialer := net.Dialer{Timeout: n.dialTimeout}
	// redial asks for one dial now, message in hand or not: a probed
	// peer's established connection was lost, and whether its kernel
	// accepts or refuses the next one tells a dropped connection from a
	// dead process. A connection younger than dialBackoffMin does not
	// count as established, so a peer that accepts and closes at once
	// is redialed at the pace of traffic and probes, not in a spin.
	var connectedAt time.Duration
	redial := false
	fail := func(extra uint64) {
		pc.closeConn()
		bw = nil
		pc.q.countDrops(unflushed + extra)
		unflushed = 0
		redial = n.probes(pc.id) && n.Now()-connectedAt >= dialBackoffMin
	}
	for {
		m, ok := pc.q.pop()
		wantPing := pc.pingPending.Load()
		if bw != nil && !pc.hasConn() {
			fail(0) // the pong reader saw the stream end (pongLoop)
		}
		if !ok && !wantPing && !redial {
			if bw != nil {
				if err := bw.Flush(); err != nil {
					fail(0)
					continue
				}
				unflushed = 0
			}
			select {
			case <-pc.q.notify:
				continue
			case <-n.ctx.Done():
				pc.q.countDrops(unflushed)
				return
			}
		}
		// inHand counts the dequeued message through the shutdown
		// paths below: once popped it exists nowhere but here, so an
		// exit before it reaches the buffer must count it.
		var inHand uint64
		if ok {
			inHand = 1
		}
		// Ensure a live connection; the dequeued message waits through
		// backoff (newer messages accumulate behind it, oldest-first
		// eviction applies if the peer stays down).
		for bw == nil {
			c, err := n.dialPeer(&dialer, pc)
			afterLoss := redial
			redial = false
			if err != nil {
				if n.ctx.Err() != nil {
					pc.q.countDrops(unflushed + inHand)
					return
				}
				if afterLoss && refusedByPeer(err) {
					pc.markRefused()
					select {
					case n.probeKick <- struct{}{}:
					default:
					}
				}
				select {
				case <-time.After(backoff):
				case <-n.ctx.Done():
					pc.q.countDrops(unflushed + inHand)
					return
				}
				if backoff *= 2; backoff > dialBackoffMax {
					backoff = dialBackoffMax
				}
				continue
			}
			backoff = dialBackoffMin
			if !pc.setConn(c) {
				pc.q.countDrops(unflushed + inHand)
				return // Stop won the race; the conn is closed
			}
			bw = bufio.NewWriterSize(c, writeBufSize)
			connectedAt = n.Now()
			if n.probeInterval > 0 {
				// The pong reader lives exactly as long as this conn.
				n.wg.Add(1)
				go n.pongLoop(pc, c)
			}
		}
		if ok {
			buf.Reset()
			buf.I64(int64(n.id))
			if err := n.codec.Append(buf, m); err != nil {
				pc.q.countDrops(1) // not encodable: shed, but count
			} else if err := WriteFrame(bw, buf.Done()); err != nil {
				if errors.Is(err, ErrFrameTooLarge) {
					// Rejected before any bytes hit the stream: the
					// connection is still in sync, shed just this message.
					pc.q.countDrops(1)
				} else {
					fail(1)
					continue
				}
			} else {
				unflushed++
			}
		}
		if wantPing {
			pc.pingPending.Store(false)
			var ts [8]byte
			binary.LittleEndian.PutUint64(ts[:], uint64(n.Now()))
			if err := WriteFrameKind(bw, FramePing, ts[:]); err != nil {
				fail(0)
				continue
			}
		}
		if pc.q.empty() {
			if err := bw.Flush(); err != nil {
				fail(0)
			} else {
				unflushed = 0
			}
		}
	}
}

// pongLoop drains keepalive replies from an outbound connection,
// feeding the peer's health record. It exits with the connection: any
// read error — the writer replacing the conn after a write failure,
// Stop closing it, or the peer closing its end — ends the loop. In the
// last case, on a probed peer, it drops the connection and wakes the
// writer to redial now rather than at the next write.
func (n *Node) pongLoop(pc *peerConn, c net.Conn) {
	defer n.wg.Done()
	br := bufio.NewReaderSize(c, 512)
	var buf []byte
	for {
		kind, payload, err := ReadFrameKind(br, buf)
		if err != nil {
			if n.probes(pc.id) && pc.dropConn(c) {
				pc.q.kick()
			}
			return
		}
		buf = payload
		if kind != FramePong || len(payload) != 8 {
			continue
		}
		now := n.Now()
		rtt := now - time.Duration(binary.LittleEndian.Uint64(payload))
		if rtt < 0 {
			rtt = 0 // a peer echoing garbage must not corrupt the record
		}
		pc.markSeen(now, rtt)
	}
}

// probes reports whether id is a peer the probe loop watches.
func (n *Node) probes(id smr.NodeID) bool {
	// Clients come and go; only replicas are probed.
	return n.probeInterval > 0 && id != n.id && !id.IsClient()
}

// refusedByPeer reports whether a dial failed because the peer's
// kernel turned it away — nothing listens on the port any more, or the
// closing listener reset the handshake. Unlike a timeout, that is an
// answer from the peer's host.
func refusedByPeer(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// probeLoop drives keepalive probing: every interval it asks each
// replica peer's writer to emit one ping (which dials the peer if no
// traffic ever has) and turns silence past the timeout — or a redial
// refused by the peer's kernel, for which a writer kicks a round ahead
// of the tick — into an smr.PeerDown event, recovery into smr.PeerUp.
// It is the sole producer of health events, so the delivered
// transition sequence always alternates and matches the health
// record's final state.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-tick.C:
		case <-n.probeKick:
		}
		n.mu.Lock()
		peers := n.peers
		n.mu.Unlock()
		for id := range peers {
			if !n.probes(id) {
				continue
			}
			pc := n.peer(id)
			if pc == nil {
				return // node stopped
			}
			switch verdict, d := pc.judgeHealth(n.Now(), n.probeInterval, n.probeTimeout); verdict {
			case healthWentDown:
				n.deliverHealth(smr.PeerDown{Peer: id, LastSeen: d})
			case healthWentUp:
				n.deliverHealth(smr.PeerUp{Peer: id, RTT: d})
			}
			pc.pingPending.Store(true)
			pc.q.kick()
		}
	}
}

// deliverHealth injects a health event into the node's loop. Like
// timer firings, health transitions are never dropped on a full inbox:
// they are rare, and losing a PeerDown would leave the protocol blind
// to exactly the condition probing exists to surface.
func (n *Node) deliverHealth(ev smr.Event) {
	select {
	case n.inbox <- ev:
	case <-n.ctx.Done():
	}
}

// ---------------------------------------------------------------------------
// smr.Env
// ---------------------------------------------------------------------------

// ID implements smr.Env.
func (n *Node) ID() smr.NodeID { return n.id }

// Now implements smr.Env.
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// SetTimer implements smr.Env. TimerFired events are never dropped on
// a full inbox (the firing goroutine waits for space or shutdown):
// only delivery clears the timer's bookkeeping.
func (n *Node) SetTimer(d time.Duration, kind string) smr.TimerID {
	return n.timers.Set(d, kind, func(tf smr.TimerFired) {
		select {
		case n.inbox <- tf:
		case <-n.ctx.Done():
		}
	})
}

// CancelTimer implements smr.Env.
func (n *Node) CancelTimer(id smr.TimerID) { n.timers.Cancel(id) }

// Defer implements smr.Env: work runs on its own goroutine and the
// completion re-enters the node's loop as an smr.Async event. Like
// timers, completions are never dropped on a full inbox — protocol
// state machines track deferred work in flight, and losing a
// completion would strand that bookkeeping — so the send blocks until
// the loop drains it or the node stops.
func (n *Node) Defer(kind string, work func(), apply func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		work()
		select {
		case n.inbox <- smr.Async{Kind: kind, Apply: apply}:
		case <-n.ctx.Done():
		}
	}()
}

var _ smr.Env = (*Node)(nil)

// ParsePeers parses "0=host:port,1=host:port,..." into a peer map.
func ParsePeers(s string) (map[smr.NodeID]string, error) {
	peers := make(map[smr.NodeID]string)
	if s == "" {
		return peers, nil
	}
	var id int
	var addr string
	for _, part := range strings.FieldsFunc(s, func(c rune) bool { return c == ',' }) {
		if _, err := fmt.Sscanf(part, "%d=%s", &id, &addr); err != nil {
			return nil, fmt.Errorf("transport: bad peer entry %q", part)
		}
		peers[smr.NodeID(id)] = addr
	}
	return peers, nil
}
