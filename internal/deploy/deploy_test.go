package deploy

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

func TestSpecPartialTLSFilesNameAllThreeFlags(t *testing.T) {
	for _, s := range []Spec{
		{TLSCert: "c.pem"},
		{TLSKey: "k.pem"},
		{TLSCA: "ca.pem"},
		{TLSCert: "c.pem", TLSKey: "k.pem"},
		{TLSCert: "c.pem", TLSCA: "ca.pem"},
		{TLSKey: "k.pem", TLSCA: "ca.pem", Insecure: true},
	} {
		_, err := s.tls()
		if err == nil {
			t.Fatalf("%+v: partial TLS files accepted", s)
		}
		for _, flag := range []string{"-tls-cert", "-tls-key", "-tls-ca"} {
			if !strings.Contains(err.Error(), flag) {
				t.Errorf("%+v: error %q does not name %s", s, err, flag)
			}
		}
	}
}

func TestSpecInsecureIsPlaintext(t *testing.T) {
	s := Spec{Insecure: true}
	if sec, err := s.tls(); sec != nil || err != nil {
		t.Fatalf("Insecure resolved to %v, %v; want plaintext", sec, err)
	}
	if s.Secure() {
		t.Error("an Insecure spec reports Secure")
	}
}

// sink records the messages a node receives.
type sink struct {
	mu    sync.Mutex
	recvd []smr.Recv
}

func (s *sink) Init(smr.Env) {}
func (s *sink) Step(ev smr.Event) {
	if r, ok := ev.(smr.Recv); ok {
		s.mu.Lock()
		s.recvd = append(s.recvd, r)
		s.mu.Unlock()
	}
}

func (s *sink) from() []smr.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []smr.NodeID
	for _, r := range s.recvd {
		ids = append(ids, r.From)
	}
	return ids
}

// slowStart takes a while over its Start event.
type slowStart struct{ started atomic.Bool }

func (n *slowStart) Init(smr.Env) {}
func (n *slowStart) Step(ev smr.Event) {
	if _, ok := ev.(smr.Start); ok {
		time.Sleep(100 * time.Millisecond)
		n.started.Store(true)
	}
}

// TestHostStopWaitsForRun: Stop returns only once Run has, even when it
// is called while the node is still inside a step.
func TestHostStopWaitsForRun(t *testing.T) {
	nd := &slowStart{}
	h, err := Spec{Listen: "127.0.0.1:0", Insecure: true}.host(nd, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	h.Stop()
	if !nd.started.Load() {
		t.Fatal("Stop returned while Run was still stepping")
	}
}

// TestSpecDefaultTLSHandshake: with no TLS settings a node runs mutual
// TLS on certificates derived from the keys, so a second node built the
// same way completes the handshake — its dial pins the first node's
// identity, and the first accepts only frames from the identity the
// second's certificate names.
func TestSpecDefaultTLSHandshake(t *testing.T) {
	keys := Keys(1, 3)
	peers := map[smr.NodeID]string{}
	spec := func(id smr.NodeID) Spec {
		return Spec{ID: id, T: 1, Keys: keys, Listen: "127.0.0.1:0", Peers: peers}
	}
	if sec, err := spec(0).tls(); sec == nil || err != nil {
		t.Fatalf("default resolved to %v, %v; want derived TLS", sec, err)
	}
	recv := &sink{}
	a, err := spec(0).host(&sink{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec(1).host(recv, nil)
	if err != nil {
		t.Fatal(err)
	}
	peers[0], peers[1] = a.Addr(), b.Addr()
	for _, h := range []*Host{a, b} {
		h.Start()
		t.Cleanup(func() { h.Stop() })
	}
	a.Send(1, &xpaxos.MsgSuspect{View: 1, From: 0})
	for deadline := time.Now().Add(5 * time.Second); len(recv.from()) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no message crossed the TLS connection")
		}
	}
	if got := recv.from(); got[0] != 0 {
		t.Errorf("message authenticated as from %d, want 0", got[0])
	}
}

// TestSpecReplicaRecoversFromDataDir: a replica built from a Spec with
// a DataDir logs its commits there, and the same Spec builds it again
// with that state — before its transport runs, which is when
// xft-server reports "recovered from WAL".
func TestSpecReplicaRecoversFromDataDir(t *testing.T) {
	keys := Keys(1, 5)
	peers := map[smr.NodeID]string{}
	specs := make([]Spec, 3)
	for i := range specs {
		specs[i] = Spec{
			ID: smr.NodeID(i), T: 1, Keys: keys, Listen: "127.0.0.1:0", Peers: peers,
			DataDir: t.TempDir(),
		}
	}
	var hosts []*Host
	stop := func() {
		for _, h := range hosts {
			if err := h.Stop(); err != nil {
				t.Error(err)
			}
		}
	}
	defer stop()
	var primary *xpaxos.Replica
	for i, s := range specs {
		r, h, err := s.Replica(xpaxos.Config{}, kv.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			primary = r
		}
		peers[s.ID] = h.Addr()
		hosts = append(hosts, h)
	}
	committed := make(chan struct{}, 1)
	client := Spec{ID: smr.ClientIDBase, T: 1, Keys: keys, Listen: "127.0.0.1:0", Peers: peers}
	_, ch, err := client.Client(xpaxos.ClientConfig{
		RequestTimeout: 2 * time.Second,
		OnCommit:       func(op, rep []byte, lat time.Duration) { committed <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	peers[smr.ClientIDBase] = ch.Addr()
	hosts = append(hosts, ch)
	for _, h := range hosts {
		h.Start()
	}
	const ops = 10
	for i := 0; i < ops; i++ {
		ch.Submit(smr.Invoke{Op: kv.PutOp("k", []byte{byte(i)})})
		select {
		case <-committed:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d did not commit", i)
		}
	}
	stop()
	// Stop returned after Run did, so the replica's state may be read.
	if primary.Executed() == 0 {
		t.Fatal("the primary executed nothing")
	}

	again, h, err := specs[0].Replica(xpaxos.Config{}, kv.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	if again.Executed() == 0 {
		t.Fatalf("rebuilt replica recovered nothing (it had executed up to %d)", primary.Executed())
	}
}
