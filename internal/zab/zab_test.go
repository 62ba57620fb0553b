package zab

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
	suite := crypto.NewSimSuite(17)
	c := &cluster{net: netsim.New(netsim.Config{Latency: netsim.Uniform{Delay: 10 * time.Millisecond}, Seed: 6})}
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

func TestZabCommonCase(t *testing.T) {
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
	// Zab ships full payloads to ALL followers: every replica executes.
	for i := 0; i < 3; i++ {
		if _, ok := c.stores[i].Get("k5"); !ok {
			t.Errorf("replica %d missing k5", i)
		}
	}
}

func TestZabLeaderSendsToAllFollowers(t *testing.T) {
	// The contrast with XPaxos (Section 5.5): one request = proposals
	// to 2t followers (full payload), acks back, commits out.
	c := newCluster(t, 1, 1)
	c.replicas[0].Cfg.BatchSize = 1
	c.net.At(0, func() { c.clients[0].Invoke(kv.GetOp("x")) })
	c.net.RunFor(time.Second)
	counts := c.net.MessageCounts()
	for typ, want := range map[string]uint64{"request": 1, "propose": 2, "ack": 2, "zab-commit": 2, "reply": 1} {
		if counts[typ] != want {
			t.Errorf("%s = %d, want %d (all %v)", typ, counts[typ], want, counts)
		}
	}
}

func TestZabLeaderCrash(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.clients[0]
	n := 0
	cl.OnCommit = func(op, rep []byte, lat time.Duration) {
		n++
		cl.Invoke(kv.PutOp(fmt.Sprintf("k%d", n), []byte("v")))
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
		t.Fatalf("no commits after leader crash (epochs %d %d)", c.replicas[1].View, c.replicas[2].View)
	}
	for i := 0; i < before; i++ {
		if _, ok := c.stores[1].Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("replica 1 lost k%d across epoch change", i)
		}
	}
}

func TestZabT2(t *testing.T) {
	c := newCluster(t, 2, 1)
	cl := c.clients[0]
	n := 0
	cl.OnCommit = func(op, rep []byte, lat time.Duration) {
		n++
		if n < 6 {
			cl.Invoke(kv.PutOp(fmt.Sprintf("k%d", n), []byte("v")))
		}
	}
	c.net.At(0, func() { cl.Invoke(kv.PutOp("k0", []byte("v"))) })
	c.net.RunFor(3 * time.Second)
	if cl.Committed != 6 {
		t.Fatalf("committed %d/6 at t=2", cl.Committed)
	}
}
