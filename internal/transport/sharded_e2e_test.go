package transport

// End-to-end acceptance for multi-group sharding over live loopback
// TCP: three replica machines each host one XPaxos replica per group
// behind an smr.GroupMux — one transport endpoint, one crypto suite,
// one event loop per machine — and a fourth node hosts the client-side
// shard.Router. Writes submitted to the router must commit in the
// group that owns their key, and reads routed the same way must see
// them, proving both groups are live on the shared transport plane.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/shard"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// shardedCommit is one commit ack surfaced from a per-group client.
type shardedCommit struct {
	group smr.GroupID
	op    []byte
	reply []byte
}

func TestShardedRouterCommitsToMultipleGroupsOverTCP(t *testing.T) {
	suite := testSuite()
	const (
		nReplicas = 3
		tf        = 1
	)
	groupIDs := []smr.GroupID{0, 1}

	cfg := xpaxos.Config{
		N: nReplicas, T: tf, Suite: suite,
		Delta:          200 * time.Millisecond,
		BatchTimeout:   2 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	}

	// Replica machines: one transport Node each, hosting a replica of
	// every group behind a GroupMux.
	peers := map[smr.NodeID]string{}
	var nodes []*Node
	for i := 0; i < nReplicas; i++ {
		mux := smr.NewGroupMux()
		for _, g := range groupIDs {
			mux.MustRegister(g, xpaxos.NewReplica(smr.NodeID(i), cfg, kv.NewStore()))
		}
		nd, err := NewNode(smr.NodeID(i), mux, "127.0.0.1:0", peers, WithCodec(xpaxos.CodecName))
		if err != nil {
			t.Fatal(err)
		}
		peers[smr.NodeID(i)] = nd.Addr()
		nodes = append(nodes, nd)
	}

	// Client machine: a shard router over both groups, one XPaxos
	// client each, sharing the same transport endpoint.
	ring, err := shard.NewRing(groupIDs, 0)
	if err != nil {
		t.Fatal(err)
	}
	commits := make(chan shardedCommit, 64)
	cid := smr.NodeID(smr.ClientIDBase)
	router, err := shard.NewRouter(ring, func(g smr.GroupID) (*xpaxos.Client, error) {
		return xpaxos.NewClient(cid, xpaxos.ClientConfig{
			N: nReplicas, T: tf, Suite: suite,
			RequestTimeout: 2 * time.Second,
			OnCommit: func(op, rep []byte, lat time.Duration) {
				commits <- shardedCommit{group: g, op: op, reply: rep}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	cnode, err := NewNode(cid, router, "127.0.0.1:0", peers, WithCodec(xpaxos.CodecName))
	if err != nil {
		t.Fatal(err)
	}
	peers[cid] = cnode.Addr()
	nodes = append(nodes, cnode)
	for _, nd := range nodes {
		go nd.Run()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})

	// Pick three keys per group, by ring ownership, so the workload is
	// guaranteed to span both shards.
	keys := map[smr.GroupID][]string{}
	for i := 0; len(keys[0]) < 3 || len(keys[1]) < 3; i++ {
		k := fmt.Sprintf("shard-key-%d", i)
		g := ring.Group(k)
		if len(keys[g]) < 3 {
			keys[g] = append(keys[g], k)
		}
		if i > 1<<16 {
			t.Fatal("ring never assigned 3 keys to each group")
		}
	}

	// One op in flight at a time: submit, wait for the ack, check it
	// came back from the owning group.
	do := func(op []byte, wantGroup smr.GroupID) shardedCommit {
		t.Helper()
		cnode.Submit(smr.Invoke{Op: op})
		select {
		case c := <-commits:
			if c.group != wantGroup {
				t.Fatalf("op committed in group %d, ring owns it in group %d", c.group, wantGroup)
			}
			if !bytes.Equal(c.op, op) {
				t.Fatalf("commit ack for wrong op")
			}
			return c
		case <-time.After(10 * time.Second):
			t.Fatalf("op for group %d did not commit over loopback TCP", wantGroup)
		}
		panic("unreachable")
	}

	for g, ks := range keys {
		for _, k := range ks {
			c := do(kv.PutOp(k, []byte("val-"+k)), g)
			if len(c.reply) == 0 || c.reply[0] != kv.StatusOK {
				t.Fatalf("put %q: bad reply % x", k, c.reply)
			}
		}
	}

	// Read everything back through the router: the value must come from
	// the same shard that executed the write.
	for g, ks := range keys {
		for _, k := range ks {
			c := do(kv.GetOp(k), g)
			want := append([]byte{kv.StatusOK}, []byte("val-"+k)...)
			if !bytes.Equal(c.reply, want) {
				t.Fatalf("get %q from group %d: reply % x, want % x", k, g, c.reply, want)
			}
		}
	}

	// The shared plane must have stayed clean: no frame arrived for a
	// group a node does not host, and nothing unsharded leaked in.
	for i, nd := range nodes {
		st := nd.Stats()
		if st.Groups == nil {
			t.Fatalf("node %d reports no group stats", i)
		}
		if st.Groups.Groups != len(groupIDs) {
			t.Fatalf("node %d hosts %d groups, want %d", i, st.Groups.Groups, len(groupIDs))
		}
		if st.Groups.UnknownGroup != 0 || st.Groups.Ungrouped != 0 {
			t.Fatalf("node %d misrouted frames: unknown-group=%d ungrouped=%d",
				i, st.Groups.UnknownGroup, st.Groups.Ungrouped)
		}
	}
}
