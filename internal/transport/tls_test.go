package transport

import (
	"bytes"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// testSuite returns the deterministic keys of a test cluster (replicas
// 0..2, clients from 1000).
func testSuite() *crypto.Ed25519Suite { return crypto.NewEd25519Suite(3+1024, 7) }

func autoTLS(t *testing.T, suite *crypto.Ed25519Suite, id smr.NodeID) *TLS {
	t.Helper()
	sec, err := AutoTLS(suite, id)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// ---------------------------------------------------------------------------
// Frame kinds
// ---------------------------------------------------------------------------

func TestFrameKindRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameKind(&buf, FramePing, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrameKind(&buf, nil)
	if err != nil || kind != FramePing || string(payload) != "12345678" {
		t.Fatalf("ping frame: kind=%d payload=%q err=%v", kind, payload, err)
	}
	kind, payload, err = ReadFrameKind(&buf, payload)
	if err != nil || kind != FrameMsg || string(payload) != "msg" {
		t.Fatalf("msg frame: kind=%d payload=%q err=%v", kind, payload, err)
	}
}

// A kind-0 frame must be bit-identical to the legacy length-prefixed
// format, so plaintext peers from before the kind bits interoperate.
func TestFrameMsgWireCompatible(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteFrame(&a, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b.Write([]byte{5, 0, 0, 0})
	b.WriteString("hello")
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("FrameMsg encoding diverged from legacy: %x vs %x", a.Bytes(), b.Bytes())
	}
}

// ---------------------------------------------------------------------------
// Mutual TLS
// ---------------------------------------------------------------------------

// newTLSPair mirrors newPair with mutual TLS from a shared suite.
func newTLSPair(t *testing.T, opts ...Option) (a, b *Node, sa, sb *sinkNode) {
	t.Helper()
	suite := testSuite()
	sa, sb = &sinkNode{}, &sinkNode{}
	peers := map[smr.NodeID]string{}
	a, err := NewNode(0, sa, "127.0.0.1:0", peers, append(opts, WithTLS(autoTLS(t, suite, 0)))...)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewNode(1, sb, "127.0.0.1:0", peers, append(opts, WithTLS(autoTLS(t, suite, 1)))...)
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

func TestTLSSendReceive(t *testing.T) {
	a, b, sa, sb := newTLSPair(t)
	a.Send(1, testMsg(42))
	b.Send(0, testMsg(43))
	waitFor(t, func() bool { return sb.count() == 1 && sa.count() == 1 }, "TLS cross traffic")
	sb.mu.Lock()
	got := sb.recvd[0]
	sb.mu.Unlock()
	m, ok := got.Msg.(*xpaxos.MsgCommit)
	if got.From != 0 || !ok || m.Order.SN != 42 {
		t.Fatalf("message did not round-trip over TLS: %#v", got)
	}
}

// TestTLSRejectsPlaintextDialer: a peer that skips the handshake must
// not get frames into the node.
func TestTLSRejectsPlaintextDialer(t *testing.T) {
	suite := testSuite()
	sink := &sinkNode{}
	n, err := NewNode(0, sink, "127.0.0.1:0", nil, WithTLS(autoTLS(t, suite, 0)))
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
	buf := wire.New(64)
	buf.I64(1)
	if err := xpaxos.AppendMessage(buf, testMsg(1)); err != nil {
		t.Fatal(err)
	}
	WriteFrame(c, buf.Done()) // raw plaintext frame into a TLS listener
	time.Sleep(100 * time.Millisecond)
	if sink.count() != 0 {
		t.Fatalf("plaintext frame crossed a TLS listener: %d messages", sink.count())
	}
}

// TestTLSRejectsSpoofedSender: a correctly authenticated peer (cert
// for node 1) claiming another sender id in the frame header must be
// disconnected without delivery — the channel identity binds the
// protocol identity.
func TestTLSRejectsSpoofedSender(t *testing.T) {
	suite := testSuite()
	sink := &sinkNode{}
	n, err := NewNode(0, sink, "127.0.0.1:0", nil, WithTLS(autoTLS(t, suite, 0)))
	if err != nil {
		t.Fatal(err)
	}
	go n.Run()
	defer n.Stop()

	dial := func(asID smr.NodeID) *tls.Conn {
		t.Helper()
		sec := autoTLS(t, suite, asID)
		c, err := tls.Dial("tcp", n.Addr(), sec.clientConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Honest: cert 1, claimed sender 1 — delivered.
	honest := dial(1)
	defer honest.Close()
	buf := wire.New(64)
	buf.I64(1)
	if err := xpaxos.AppendMessage(buf, testMsg(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(honest, buf.Done()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 1 }, "honest TLS frame")

	// Spoofed: cert 1, claimed sender 2 — dropped, conn closed.
	spoof := dial(1)
	defer spoof.Close()
	buf.Reset()
	buf.I64(2)
	if err := xpaxos.AppendMessage(buf, testMsg(6)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(spoof, buf.Done()); err != nil {
		t.Fatal(err)
	}
	// The node must hang up on the spoofer.
	spoof.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := spoof.Read(make([]byte, 1)); err == nil {
		t.Fatal("spoofing connection not closed")
	}
	if sink.count() != 1 {
		t.Fatalf("spoofed frame delivered: %d messages", sink.count())
	}
}

// TestTLSWrongClusterRejected: certificates from a different seed (a
// different cluster CA) must not authenticate.
func TestTLSWrongClusterRejected(t *testing.T) {
	suiteA := crypto.NewEd25519Suite(3+1024, 7)
	suiteB := crypto.NewEd25519Suite(3+1024, 8)
	sink := &sinkNode{}
	n, err := NewNode(0, sink, "127.0.0.1:0", nil, WithTLS(autoTLS(t, suiteA, 0)))
	if err != nil {
		t.Fatal(err)
	}
	go n.Run()
	defer n.Stop()

	sec := autoTLS(t, suiteB, 1)
	c, err := tls.Dial("tcp", n.Addr(), sec.clientConfig(0))
	if err == nil {
		// The handshake may only fail at first read/write depending on
		// which side aborts; either way no frame may be delivered.
		buf := wire.New(64)
		buf.I64(1)
		xpaxos.AppendMessage(buf, testMsg(9))
		WriteFrame(c, buf.Done())
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, rerr := c.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("foreign-cluster connection stayed open")
		}
		c.Close()
	}
	time.Sleep(50 * time.Millisecond)
	if sink.count() != 0 {
		t.Fatalf("foreign-cluster frame delivered: %d messages", sink.count())
	}
}

// TestAutoTLSCertificatesPinned: AutoTLS is deterministic in the seed,
// so every node derives byte-identical certificates. The digests were
// taken while the suite still built every key up front and must not
// move with how it derives them.
func TestAutoTLSCertificatesPinned(t *testing.T) {
	suite := testSuite()
	caDER, _, err := clusterCA(suite)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantCA    = "f406e1d8f67883c7f3c929f143fef8e786c8432416ad162101526a28b68378ae"
		wantNode0 = "479d48dbe2a3bd99355ff3c5898008e33330be963f6606a868d13f37b718f135"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256(caDER)); got != wantCA {
		t.Errorf("CA certificate digest %s, want %s", got, wantCA)
	}
	node0 := autoTLS(t, suite, 0).cert.Certificate[0]
	if got := fmt.Sprintf("%x", sha256.Sum256(node0)); got != wantNode0 {
		t.Errorf("node 0 certificate digest %s, want %s", got, wantNode0)
	}
}

// TestPeerIDFromCert pins the identity-SAN parsing rules: exactly one
// non-negative xft-node-<id> name. A negative id would collide with
// the read loop's plaintext sentinel (silently disabling the sender
// check); a multi-identity cert would speak for several nodes.
func TestPeerIDFromCert(t *testing.T) {
	cases := []struct {
		names []string
		want  smr.NodeID
		ok    bool
	}{
		{[]string{"xft-node-3"}, 3, true},
		{[]string{"example.com", "xft-node-1000"}, 1000, true},
		{[]string{"xft-node-0"}, 0, true},
		{[]string{"xft-node--1"}, 0, false},
		{[]string{"xft-node-1", "xft-node-2"}, 0, false},
		{[]string{"xft-node-"}, 0, false},
		{[]string{"xft-node-x"}, 0, false},
		{[]string{"example.com"}, 0, false},
		{nil, 0, false},
	}
	for _, c := range cases {
		id, ok := peerIDFromCert(&x509.Certificate{DNSNames: c.names})
		if ok != c.ok || (ok && id != c.want) {
			t.Errorf("peerIDFromCert(%v) = (%d, %v), want (%d, %v)", c.names, id, ok, c.want, c.ok)
		}
	}
}

// TestLoadTLSFiles round-trips WriteCertFiles -> LoadTLS and runs real
// traffic over the file-provisioned material.
func TestLoadTLSFiles(t *testing.T) {
	suite := testSuite()
	dir := t.TempDir()
	if err := WriteCertFiles(suite, []smr.NodeID{0, 1}, dir); err != nil {
		t.Fatal(err)
	}
	load := func(id int) *TLS {
		sec, err := LoadTLS(
			filepath.Join(dir, nodeCertName(id)),
			filepath.Join(dir, nodeKeyName(id)),
			filepath.Join(dir, "ca.pem"))
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	sa, sb := &sinkNode{}, &sinkNode{}
	peers := map[smr.NodeID]string{}
	a, err := NewNode(0, sa, "127.0.0.1:0", peers, WithTLS(load(0)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(1, sb, "127.0.0.1:0", peers, WithTLS(load(1)))
	if err != nil {
		t.Fatal(err)
	}
	peers[0], peers[1] = a.Addr(), b.Addr()
	go a.Run()
	go b.Run()
	defer a.Stop()
	defer b.Stop()
	a.Send(1, testMsg(11))
	waitFor(t, func() bool { return sb.count() == 1 }, "file-provisioned TLS traffic")
}

func nodeCertName(id int) string { return "node-" + itoa(id) + ".pem" }
func nodeKeyName(id int) string  { return "node-" + itoa(id) + "-key.pem" }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// ---------------------------------------------------------------------------
// Keepalive health probing
// ---------------------------------------------------------------------------

// healthSink records delivered health events alongside messages.
type healthSink struct {
	sinkNode
	downs chan smr.PeerDown
	ups   chan smr.PeerUp
}

func newHealthSink() *healthSink {
	return &healthSink{
		downs: make(chan smr.PeerDown, 16),
		ups:   make(chan smr.PeerUp, 16),
	}
}

func (h *healthSink) Step(ev smr.Event) {
	switch e := ev.(type) {
	case smr.PeerDown:
		h.downs <- e
	case smr.PeerUp:
		h.ups <- e
	default:
		h.sinkNode.Step(ev)
	}
}

// TestKeepaliveDetectsDeadPeer: with probing enabled, a stopped peer
// must surface as a PeerDown event within the probe timeout, and its
// replacement (same address) as a PeerUp.
func TestKeepaliveDetectsDeadPeer(t *testing.T) {
	hs := newHealthSink()
	sb := &sinkNode{}
	peers := map[smr.NodeID]string{}
	a, err := NewNode(0, hs, "127.0.0.1:0", peers,
		WithKeepalive(20*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(1, sb, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	addrB := b.Addr()
	peers[0], peers[1] = a.Addr(), addrB
	go a.Run()
	go b.Run()
	t.Cleanup(a.Stop)
	t.Cleanup(b.Stop)

	// Probing must confirm liveness without any protocol traffic: the
	// health record's LastSeen advances only on pongs, so seeing it
	// past several probe intervals proves a round trip happened.
	waitFor(t, func() bool {
		st := a.Stats().Peers[1]
		return st.Up && st.LastSeen > 300*time.Millisecond
	}, "initial liveness confirmation")

	b.Stop()
	select {
	case d := <-hs.downs:
		if d.Peer != 1 {
			t.Fatalf("PeerDown for %d, want 1", d.Peer)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no PeerDown after stopping the peer")
	}
	if st := a.Stats().Peers[1]; st.Up {
		t.Error("stats still report peer 1 up after PeerDown")
	}

	// Resurrect the peer on the same address: probing must report it
	// back up.
	b2, err := NewNode(1, &sinkNode{}, addrB, peers)
	if err != nil {
		t.Fatal(err)
	}
	go b2.Run()
	t.Cleanup(b2.Stop)
	select {
	case u := <-hs.ups:
		if u.Peer != 1 {
			t.Fatalf("PeerUp for %d, want 1", u.Peer)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no PeerUp after peer came back")
	}
}

// TestKeepaliveOverTLS: probes must flow through secured channels too
// (the pong rides the TLS stream the ping arrived on).
func TestKeepaliveOverTLS(t *testing.T) {
	a, _, _, _ := newTLSPair(t, WithKeepalive(20*time.Millisecond, 100*time.Millisecond))
	waitFor(t, func() bool {
		st := a.Stats().Peers[1]
		return st.Up && st.LastSeen > 300*time.Millisecond
	}, "TLS keepalive round trip")
}

// ---------------------------------------------------------------------------
// End-to-end: a TLS cluster commits (acceptance criterion)
// ---------------------------------------------------------------------------

// TestTLSClusterCommits runs a full 3-replica XPaxos cluster plus one
// client, all over mutual TLS with keepalive probing, and commits
// operations end to end.
func TestTLSClusterCommits(t *testing.T) {
	const (
		n       = 3
		tf      = 1
		numOps  = 5
		clientD = smr.ClientIDBase
	)
	suite := testSuite()
	peers := map[smr.NodeID]string{}
	var nodes []*Node

	for i := 0; i < n; i++ {
		id := smr.NodeID(i)
		cfg := xpaxos.Config{
			N: n, T: tf,
			Suite:          suite,
			Delta:          200 * time.Millisecond,
			BatchTimeout:   2 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
		}
		rep := xpaxos.NewReplica(id, cfg, kv.NewStore())
		node, err := NewNode(id, rep, "127.0.0.1:0", peers,
			WithTLS(autoTLS(t, suite, id)),
			WithKeepalive(50*time.Millisecond, 250*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = node.Addr()
		nodes = append(nodes, node)
	}

	committed := make(chan []byte, numOps)
	cl, err := xpaxos.NewClient(clientD, xpaxos.ClientConfig{
		N: n, T: tf, Suite: suite,
		RequestTimeout: 2 * time.Second,
		OnCommit:       func(op, rep []byte, lat time.Duration) { committed <- rep },
	})
	if err != nil {
		t.Fatal(err)
	}
	cnode, err := NewNode(clientD, cl, "127.0.0.1:0", peers, WithTLS(autoTLS(t, suite, clientD)))
	if err != nil {
		t.Fatal(err)
	}
	peers[clientD] = cnode.Addr()
	nodes = append(nodes, cnode)

	for _, nd := range nodes {
		go nd.Run()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})

	for i := 0; i < numOps; i++ {
		cnode.Submit(smr.Invoke{Op: kv.PutOp("k", []byte{byte(i)})})
		select {
		case <-committed:
		case <-time.After(10 * time.Second):
			t.Fatalf("op %d did not commit over the TLS cluster", i)
		}
	}
}

// TestKeepaliveDrivenSuspectTCP: the acceptance scenario on a live
// loopback cluster. The request timeout is set far beyond the test
// horizon, so only the keepalive-fed PeerDown can trigger the view
// change when the primary dies.
func TestKeepaliveDrivenSuspectTCP(t *testing.T) {
	const (
		n  = 3
		tf = 1
	)
	suite := testSuite()
	peers := map[smr.NodeID]string{}
	var nodes []*Node
	viewChanged := make(chan smr.View, 8)

	for i := 0; i < n; i++ {
		id := smr.NodeID(i)
		cfg := xpaxos.Config{
			N: n, T: tf,
			Suite:        suite,
			Delta:        100 * time.Millisecond,
			BatchTimeout: 2 * time.Millisecond,
			// Deliberately enormous: a view change before this expires
			// can only come from the health signal.
			RequestTimeout: 10 * time.Minute,
		}
		cfg.OnViewChange = func(v smr.View, at time.Duration) { viewChanged <- v }
		rep := xpaxos.NewReplica(id, cfg, kv.NewStore())
		node, err := NewNode(id, rep, "127.0.0.1:0", peers,
			WithKeepalive(25*time.Millisecond, 150*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = node.Addr()
		nodes = append(nodes, node)
	}
	for _, nd := range nodes {
		go nd.Run()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})

	// Let probing confirm liveness, then kill the view-0 primary.
	time.Sleep(200 * time.Millisecond)
	nodes[0].Stop()

	select {
	case v := <-viewChanged:
		if v == 0 {
			t.Fatalf("view change into view 0?")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("keepalive-fed health signal did not drive a view change")
	}
}
