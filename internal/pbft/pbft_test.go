package pbft

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
	n := 3*tf + 1
	suite := crypto.NewSimSuite(11)
	c := &cluster{net: netsim.New(netsim.Config{Latency: netsim.Uniform{Delay: 10 * time.Millisecond}, Seed: 4})}
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

func TestPBFTCommonCase(t *testing.T) {
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
	// The 2t+1 = 3 actives executed; the passive did not participate.
	for i := 0; i < 3; i++ {
		if _, ok := c.stores[i].Get("k5"); !ok {
			t.Errorf("active replica %d missing k5", i)
		}
	}
}

func TestPBFTFigure6aPattern(t *testing.T) {
	// Figure 6a (t=1): pre-prepare to 2 actives (it doubles as the
	// primary's commit), then the 2 non-primary actives each send
	// commits to the 2 other actives (4 messages), 3 replies; the 4th
	// replica idles.
	c := newCluster(t, 1, 1)
	c.replicas[0].Cfg.BatchSize = 1
	c.net.At(0, func() { c.clients[0].Invoke(kv.GetOp("x")) })
	c.net.RunFor(time.Second)
	counts := c.net.MessageCounts()
	for typ, want := range map[string]uint64{"request": 1, "pre-prepare": 2, "commit": 4, "reply": 3} {
		if counts[typ] != want {
			t.Errorf("%s = %d, want %d (all %v)", typ, counts[typ], want, counts)
		}
	}
	if st := c.net.Stats(3); st.MsgsSent != 0 {
		t.Errorf("passive replica sent %d messages in common case", st.MsgsSent)
	}
}

func TestPBFTPrimaryCrash(t *testing.T) {
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
		t.Fatalf("no commits after primary crash (view %d)", c.replicas[1].View)
	}
	for i := 0; i < before; i++ {
		if _, ok := c.stores[1].Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("replica 1 lost k%d across view change", i)
		}
	}
}

func TestPBFTT2(t *testing.T) {
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
		t.Fatalf("committed %d/6 at t=2 (n=7)", cl.Committed)
	}
}
