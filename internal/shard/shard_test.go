package shard_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/netsim"
	"github.com/xft-consensus/xft/internal/shard"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	groups := []smr.GroupID{0, 1, 2, 3}
	r1, err := shard.NewRing(groups, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	// Same groups in a different order must give the same placement.
	r2, err := shard.NewRing([]smr.GroupID{3, 1, 0, 2}, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	hit := make(map[smr.GroupID]int)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("key-%d", i)
		g := r1.Group(key)
		if g2 := r2.Group(key); g2 != g {
			t.Fatalf("ring not order-independent: key %q -> %d vs %d", key, g, g2)
		}
		hit[g]++
	}
	// Every group owns a reasonable share: with 64 vnodes each the
	// imbalance stays well under 2x.
	for _, g := range groups {
		if hit[g] < 4096/(len(groups)*2) {
			t.Errorf("group %d owns %d/4096 keys — ring badly imbalanced: %v", g, hit[g], hit)
		}
	}
}

func TestRingRejectsDuplicates(t *testing.T) {
	if _, err := shard.NewRing([]smr.GroupID{1, 1}, 8); err == nil {
		t.Fatal("duplicate group accepted")
	}
	if _, err := shard.NewRing(nil, 8); err == nil {
		t.Fatal("empty ring accepted")
	}
}

// shardedCluster is two replica groups behind GroupMux nodes on three
// shared "machines", and one Router client of the given window hashing
// keys across them, all on the network simulator.
type shardedCluster struct {
	net    *netsim.Network
	ring   *shard.Ring
	router *shard.Router
	muxes  []*smr.GroupMux
	stores [][]*kv.Store // by group, then machine
}

const (
	groups = 2
	n, tf  = 3, 1
)

func newShardedCluster(t *testing.T, window int, reqTimeout time.Duration, onCommit func()) *shardedCluster {
	t.Helper()
	suite := crypto.NewSimSuite(1)
	c := &shardedCluster{
		net: netsim.New(netsim.Config{
			Latency: netsim.Uniform{Delay: 2 * time.Millisecond},
			Seed:    1,
		}),
		stores: make([][]*kv.Store, groups),
	}
	// Three machines, each hosting one replica of every group.
	for g := range c.stores {
		c.stores[g] = make([]*kv.Store, n)
	}
	for i := 0; i < n; i++ {
		mux := smr.NewGroupMux()
		for g := 0; g < groups; g++ {
			store := kv.NewStore()
			c.stores[g][i] = store
			cfg := xpaxos.Config{
				N: n, T: tf,
				Suite:             crypto.NewMeter(suite),
				Delta:             100 * time.Millisecond,
				BatchSize:         4,
				BatchTimeout:      2 * time.Millisecond,
				RequestTimeout:    reqTimeout,
				ViewChangeTimeout: 400 * time.Millisecond,
			}
			mux.MustRegister(smr.GroupID(g), xpaxos.NewReplica(smr.NodeID(i), cfg, store))
		}
		c.muxes = append(c.muxes, mux)
		c.net.AddNode(smr.NodeID(i), mux)
	}
	var err error
	if c.ring, err = shard.NewRing([]smr.GroupID{0, 1}, 0); err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	c.router, err = shard.NewRouter(c.ring, func(g smr.GroupID) (*xpaxos.Client, error) {
		return xpaxos.NewClient(smr.ClientIDBase, xpaxos.ClientConfig{
			N: n, T: tf,
			Suite:          crypto.NewMeter(suite),
			RequestTimeout: reqTimeout,
			Window:         window,
			OnCommit:       func(op, rep []byte, _ time.Duration) { onCommit() },
		})
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	c.net.AddNode(smr.ClientIDBase, c.router)
	return c
}

// TestRouterShardedCommit is the simulator end-to-end for the sharded
// client path: a Router client hashes keys across the two groups, and
// every op commits in the group that owns its key — with per-group
// stores showing exactly the expected partition of the key space.
func TestRouterShardedCommit(t *testing.T) {
	const ops = 32
	committed := 0
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	var c *shardedCluster
	invokeNext := func() {
		if committed < ops {
			c.router.Invoke(kv.PutOp(keys[committed], []byte(keys[committed])))
		}
	}
	c = newShardedCluster(t, 1, 500*time.Millisecond, func() {
		committed++
		invokeNext()
	})
	ring, router, stores := c.ring, c.router, c.stores
	c.net.At(10*time.Millisecond, invokeNext)
	c.net.RunFor(20 * time.Second)

	if committed != ops {
		t.Fatalf("committed %d/%d ops through the router", committed, ops)
	}
	// Partition correctness: each key landed in (all replicas of)
	// exactly the ring's group, and nowhere else.
	perGroup := make(map[smr.GroupID]int)
	for _, k := range keys {
		want := ring.Group(k)
		perGroup[want]++
		for g := 0; g < groups; g++ {
			for i := 0; i < n; i++ {
				_, ok := stores[g][i].Get(k)
				owns := smr.GroupID(g) == want
				if owns && !ok && i != 2 {
					// Replica 2 is passive in view 0 and may lag lazily;
					// actives must have the key.
					t.Errorf("active replica %d of owning group %d missing key %q", i, g, k)
				}
				if !owns && ok {
					t.Errorf("group %d holds key %q owned by group %d", g, k, want)
				}
			}
		}
	}
	// The workload must actually exercise both shards.
	for g := 0; g < groups; g++ {
		if perGroup[smr.GroupID(g)] == 0 {
			t.Errorf("no keys hashed to group %d; test workload degenerate", g)
		}
	}
	// Both groups' traffic shared one mux per machine with no misroutes.
	st := router.GroupStats()
	if st.UnknownGroup != 0 {
		t.Errorf("router saw %d unknown-group messages", st.UnknownGroup)
	}
}

// TestRouterWindowedClientSurvivesPrimaryCrash is xpaxos's
// TestWindowedClientSurvivesPrimaryCrash driven through the router: a
// window of 64 per shard, one request a millisecond, and machine 0 —
// primary of both groups — crashes. The requests in flight are
// stranded until their one-second timers fire (the ⟨view-installed⟩
// notices are lost), newer ones commit meanwhile, and the router itself
// must turn a request away while its shard's client cannot take it:
// Invoke used to panic there unless the driver asked CanInvoke first.
func TestRouterWindowedClientSurvivesPrimaryCrash(t *testing.T) {
	const (
		total            = 3000
		crashAt, learnAt = 500 * time.Millisecond, 520 * time.Millisecond
	)
	committed, issued, refused := 0, 0, 0
	c := newShardedCluster(t, 64, time.Second, func() { committed++ })
	var tick func()
	tick = func() {
		if issued == total {
			return
		}
		// What the router refuses waits for the next tick, as a
		// generator's backlog would.
		if _, ok := c.router.Invoke(kv.PutOp(fmt.Sprintf("key-%02d", issued%32), []byte(fmt.Sprintf("v%d", issued)))); ok {
			issued++
		} else {
			refused++
		}
		c.net.After(time.Millisecond, tick)
	}
	c.net.At(c.net.Now(), tick)
	c.net.At(crashAt, func() { c.net.Crash(0) })
	c.net.At(learnAt, func() {
		for _, nd := range []smr.Node{c.router, c.muxes[1], c.muxes[2]} {
			nd.Step(smr.PeerDown{Peer: 0, LastSeen: time.Second})
		}
	})
	// View 2 installs 240 ms after the PeerDown; its notice is lost.
	c.net.At(learnAt+230*time.Millisecond, func() { c.net.CutLink(1, smr.ClientIDBase) })
	c.net.At(learnAt+255*time.Millisecond, func() { c.net.HealLink(1, smr.ClientIDBase) })
	c.net.RunFor(30 * time.Second)

	retransmits := uint64(0)
	for _, g := range c.ring.Groups() {
		retransmits += c.router.Client(g).Retransmits
	}
	if retransmits == 0 || refused == 0 {
		t.Errorf("%d request timers fired and the router refused %d requests: the test no longer tests the window", retransmits, refused)
	}
	if issued != total || committed != total {
		t.Fatalf("issued %d, committed %d of %d (router refused %d offers)", issued, committed, total, refused)
	}
}
