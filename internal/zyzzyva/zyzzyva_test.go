package zyzzyva

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/baseline"
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
	n := 3*tf + 1
	suite := crypto.NewSimSuite(13)
	c := &cluster{net: netsim.New(netsim.Config{Latency: netsim.Uniform{Delay: 10 * time.Millisecond}, Seed: 5})}
	for i := 0; i < n; i++ {
		store := kv.NewStore()
		c.stores = append(c.stores, store)
		r := NewReplica(smr.NodeID(i), Config{Config: baseline.Config{
			N: n, T: tf, Suite: crypto.NewMeter(suite),
			BatchSize: 4, BatchTimeout: 2 * time.Millisecond,
			RequestTimeout: 400 * time.Millisecond,
		}}, store)
		c.replicas = append(c.replicas, r)
		c.net.AddNode(smr.NodeID(i), r)
	}
	for i := 0; i < nclients; i++ {
		cl := NewClient(smr.ClientIDBase+smr.NodeID(i), Config{
			Config: baseline.Config{
				N: n, T: tf, Suite: crypto.NewMeter(suite),
				RequestTimeout: 400 * time.Millisecond,
			},
			CommitTimeout: 100 * time.Millisecond,
		})
		c.clients = append(c.clients, cl)
		c.net.AddNode(smr.ClientIDBase+smr.NodeID(i), cl)
	}
	return c
}

func TestZyzzyvaFastPath(t *testing.T) {
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
	if cl.FastPath != 10 || cl.SlowPath != 0 {
		t.Errorf("fast/slow = %d/%d, want 10/0 in fault-free run", cl.FastPath, cl.SlowPath)
	}
	// All 4 replicas executed speculatively.
	for i := 0; i < 4; i++ {
		if _, ok := c.stores[i].Get("k5"); !ok {
			t.Errorf("replica %d missing k5", i)
		}
	}
}

func TestZyzzyvaFigure6bPattern(t *testing.T) {
	// Figure 6b (t=1): request; order-req to 3 replicas; 4 spec
	// responses straight to the client.
	c := newCluster(t, 1, 1)
	c.replicas[0].Cfg.BatchSize = 1
	c.net.At(0, func() { c.clients[0].Invoke(kv.GetOp("x")) })
	c.net.RunFor(time.Second)
	counts := c.net.MessageCounts()
	for typ, want := range map[string]uint64{"request": 1, "order-req": 3, "spec-response": 4} {
		if counts[typ] != want {
			t.Errorf("%s = %d, want %d (all %v)", typ, counts[typ], want, counts)
		}
	}
}

func TestZyzzyvaSlowPathOnReplicaCrash(t *testing.T) {
	// With one backup crashed, only 3t = 3 spec responses arrive: the
	// client must fall back to the slow path and still commit.
	c := newCluster(t, 1, 1)
	c.net.Crash(3)
	cl := c.clients[0]
	c.net.At(0, func() { cl.Invoke(kv.PutOp("x", []byte("1"))) })
	c.net.RunFor(3 * time.Second)
	if cl.Committed != 1 {
		t.Fatalf("slow path did not commit")
	}
	if cl.SlowPath != 1 {
		t.Errorf("fast/slow = %d/%d, want slow-path commit", cl.FastPath, cl.SlowPath)
	}
}

func TestZyzzyvaPrimaryCrash(t *testing.T) {
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
	c.net.RunFor(10 * time.Second)
	if n <= before {
		t.Fatalf("no commits after primary crash (view %d)", c.replicas[1].View)
	}
}
