package paxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/netsim"
	"github.com/xft-consensus/xft/internal/smr"
)

type cluster struct {
	net      *netsim.Network
	replicas []*Replica
	stores   []*kv.Store
	clients  []*Client
}

func newCluster(t *testing.T, tf, nclients int) *cluster {
	t.Helper()
	n := 2*tf + 1
	suite := crypto.NewSimSuite(7)
	c := &cluster{net: netsim.New(netsim.Config{Latency: netsim.Uniform{Delay: 10 * time.Millisecond}, Seed: 3})}
	for i := 0; i < n; i++ {
		store := kv.NewStore()
		c.stores = append(c.stores, store)
		r := NewReplica(smr.NodeID(i), Config{
			N: n, T: tf, Suite: crypto.NewMeter(suite),
			BatchSize: 4, BatchTimeout: 2 * time.Millisecond,
			RequestTimeout: 300 * time.Millisecond,
		}, store)
		c.replicas = append(c.replicas, r)
		c.net.AddNode(smr.NodeID(i), r)
	}
	for i := 0; i < nclients; i++ {
		cl := NewClient(smr.ClientIDBase+smr.NodeID(i), Config{
			N: n, T: tf, Suite: crypto.NewMeter(suite),
			RequestTimeout: 300 * time.Millisecond,
		})
		c.clients = append(c.clients, cl)
		c.net.AddNode(smr.ClientIDBase+smr.NodeID(i), cl)
	}
	return c
}

func TestPaxosCommonCase(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.clients[0]
	n := 0
	cl.OnCommit = func(op, rep []byte, lat time.Duration) {
		n++
		if n < 10 {
			cl.Invoke(kv.PutOp(fmt.Sprintf("k%d", n), []byte("v")))
		}
	}
	c.net.At(0, func() { cl.Invoke(kv.PutOp("k0", []byte("v"))) })
	c.net.RunFor(3 * time.Second)
	if cl.Committed != 10 {
		t.Fatalf("committed %d/10", cl.Committed)
	}
	// Leader and quorum member executed; passive learned lazily.
	for i := 0; i < 3; i++ {
		if _, ok := c.stores[i].Get("k5"); !ok {
			t.Errorf("replica %d missing k5", i)
		}
	}
}

func TestPaxosFigure6cPattern(t *testing.T) {
	// Figure 6c (t=1): client→leader, leader→s1, s1→leader, leader→client.
	c := newCluster(t, 1, 1)
	c.replicas[0].Cfg.BatchSize = 1
	c.net.At(0, func() { c.clients[0].Invoke(kv.GetOp("x")) })
	c.net.RunFor(time.Second)
	counts := c.net.MessageCounts()
	for typ, want := range map[string]uint64{"request": 1, "accept": 1, "accepted": 1, "reply": 1, "px-commit": 1} {
		if counts[typ] != want {
			t.Errorf("%s = %d, want %d (all %v)", typ, counts[typ], want, counts)
		}
	}
}

func TestPaxosLeaderCrashElectsNewLeader(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.clients[0]
	n := 0
	stop := false
	cl.OnCommit = func(op, rep []byte, lat time.Duration) {
		n++
		if !stop {
			cl.Invoke(kv.PutOp(fmt.Sprintf("k%d", n), []byte("v")))
		}
	}
	c.net.At(0, func() { cl.Invoke(kv.PutOp("k0", []byte("v"))) })
	c.net.RunFor(2 * time.Second)
	before := n
	if before == 0 {
		t.Fatalf("no commits before crash")
	}
	c.net.Crash(0)
	c.net.RunFor(8 * time.Second)
	if n <= before {
		t.Fatalf("no commits after leader crash (views: %d %d)", c.replicas[1].View, c.replicas[2].View)
	}
	// Committed data must survive into the new view.
	for i := 0; i < before; i++ {
		if _, ok := c.stores[1].Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("replica 1 lost k%d across leader change", i)
		}
	}
}

func TestPaxosT2(t *testing.T) {
	c := newCluster(t, 2, 1)
	cl := c.clients[0]
	n := 0
	cl.OnCommit = func(op, rep []byte, lat time.Duration) {
		n++
		if n < 8 {
			cl.Invoke(kv.PutOp(fmt.Sprintf("k%d", n), []byte("v")))
		}
	}
	c.net.At(0, func() { cl.Invoke(kv.PutOp("k0", []byte("v"))) })
	c.net.RunFor(3 * time.Second)
	if cl.Committed != 8 {
		t.Fatalf("committed %d/8 at t=2", cl.Committed)
	}
}

func TestPaxosDuplicateSuppression(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.clients[0]
	c.net.At(0, func() { cl.Invoke(kv.AppendOp("x", []byte("a"))) })
	c.net.RunFor(time.Second)
	// Replay the same request; append must not run twice.
	c.net.At(c.net.Now(), func() {
		cl.Env.Send(0, &MsgRequest{Req: Request{Op: kv.AppendOp("x", []byte("a")), TS: 1, Client: cl.ID}})
	})
	c.net.RunFor(time.Second)
	if v, _ := c.stores[0].Get("x"); string(v) != "a" {
		t.Fatalf("duplicate executed: x=%q", v)
	}
}

func TestPaxosUsesOnlyMACs(t *testing.T) {
	// The CFT baseline must never sign anything.
	suite := crypto.NewSimSuite(7)
	meters := make([]*crypto.Meter, 3)
	c := &cluster{net: netsim.New(netsim.Config{Latency: netsim.Uniform{Delay: time.Millisecond}, Seed: 3})}
	for i := 0; i < 3; i++ {
		meters[i] = crypto.NewMeter(suite)
		store := kv.NewStore()
		r := NewReplica(smr.NodeID(i), Config{N: 3, T: 1, Suite: meters[i], BatchSize: 1}, store)
		c.replicas = append(c.replicas, r)
		c.net.AddNode(smr.NodeID(i), r)
	}
	cm := crypto.NewMeter(suite)
	cl := NewClient(smr.ClientIDBase, Config{N: 3, T: 1, Suite: cm})
	c.net.AddNode(smr.ClientIDBase, cl)
	c.net.At(0, func() { cl.Invoke(kv.GetOp("x")) })
	c.net.RunFor(time.Second)
	if cl.Committed != 1 {
		t.Fatalf("commit failed")
	}
	for i, m := range meters {
		tot := m.Total()
		if tot.Signs != 0 || tot.Verifies != 0 {
			t.Errorf("replica %d used signatures (%d/%d) in CFT Paxos", i, tot.Signs, tot.Verifies)
		}
		if tot.MACs == 0 && tot.MACVerifies == 0 && i < 2 {
			t.Errorf("replica %d used no MACs", i)
		}
	}
}
