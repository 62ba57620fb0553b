package transport

// End-to-end acceptance for the codec registry: every protocol in the
// benchmark arena — XPaxos and the four ported baselines — commits a
// request over live loopback TCP with the transport resolving its
// codec by name. The transport imports none of the protocol packages;
// this test links the protocol table (internal/protocols), whose
// packages register their codecs on import, and WithCodec selects the
// right one per cluster. The baselines run with
// SignedRequests so the client-signature verify pipeline (Env.Defer on
// a real goroutine, not netsim) is exercised over the wire too.

import (
	"strings"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/protocols"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// arenaCluster is one protocol's replica set plus a closed-loop client
// node, all on loopback TCP.
type arenaCluster struct {
	nodes  []*Node
	client *Node
	done   chan struct{}
}

func (ac *arenaCluster) stop() {
	for _, nd := range ac.nodes {
		nd.Stop()
	}
}

// startCluster boots nReplicas protocol nodes plus one client node
// under the named codec. replica(i) and client(onCommit) build the
// hosted smr.Nodes.
func startCluster(t *testing.T, codec string, nReplicas int,
	replica func(i int) smr.Node, client func(done chan struct{}) smr.Node) *arenaCluster {
	t.Helper()
	ac := &arenaCluster{done: make(chan struct{}, 1)}
	peers := map[smr.NodeID]string{}
	for i := 0; i < nReplicas; i++ {
		nd, err := NewNode(smr.NodeID(i), replica(i), "127.0.0.1:0", peers, WithCodec(codec))
		if err != nil {
			t.Fatal(err)
		}
		peers[smr.NodeID(i)] = nd.Addr()
		ac.nodes = append(ac.nodes, nd)
	}
	cid := smr.NodeID(smr.ClientIDBase)
	cnode, err := NewNode(cid, client(ac.done), "127.0.0.1:0", peers, WithCodec(codec))
	if err != nil {
		t.Fatal(err)
	}
	peers[cid] = cnode.Addr()
	ac.client = cnode
	ac.nodes = append(ac.nodes, cnode)
	for _, nd := range ac.nodes {
		go nd.Run()
	}
	t.Cleanup(ac.stop)
	return ac
}

// runOne submits one op through the cluster's client node and waits
// for its commit callback.
func runOne(t *testing.T, proto string, ac *arenaCluster) {
	t.Helper()
	ac.client.Submit(smr.Invoke{Op: kv.PutOp("arena", []byte(proto))})
	select {
	case <-ac.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: request did not commit over loopback TCP", proto)
	}
}

// commitOverTCP boots every protocol of the table on loopback TCP with
// its own instance of the application and commits one request.
func commitOverTCP(t *testing.T, params protocols.Params, app func() smr.Application) {
	for _, p := range protocols.All {
		t.Run(strings.ToLower(p.Name), func(t *testing.T) {
			ac := startCluster(t, p.Codec, p.Replicas(params.T),
				func(i int) smr.Node { return p.NewReplica(smr.NodeID(i), params, app()) },
				func(done chan struct{}) smr.Node {
					return p.NewClient(smr.ClientIDBase, params, func(op, rep []byte, lat time.Duration) { done <- struct{}{} })
				})
			runOne(t, p.Name, ac)
		})
	}
}

func TestArenaAllProtocolsCommitOverTCP(t *testing.T) {
	commitOverTCP(t, protocols.Params{
		T: 1, Suite: testSuite(),
		Delta:          200 * time.Millisecond,
		BatchTimeout:   2 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		SignedRequests: true,
	}, func() smr.Application { return kv.NewStore() })
}

// TestArenaEmptyReplyCommitsOverTCP: an application may reply with no
// bytes, and at t = 2 the clients of XPaxos, PBFT and Zyzzyva must tell
// "the reply, which is empty" from a digest-only vote after the codec
// has been through both. The request timeout is beyond runOne's wait,
// so only the first round of replies can commit the request.
func TestArenaEmptyReplyCommitsOverTCP(t *testing.T) {
	commitOverTCP(t, protocols.Params{
		T: 2, Suite: testSuite(),
		Delta:          200 * time.Millisecond,
		BatchTimeout:   2 * time.Millisecond,
		RequestTimeout: time.Minute,
	}, func() smr.Application { return &kv.Null{} })
}

// TestWithCodecUnknownName pins NewNode's failure mode when the codec
// was never registered.
func TestWithCodecUnknownName(t *testing.T) {
	_, err := NewNode(0, &sinkNode{}, "127.0.0.1:0", map[smr.NodeID]string{}, WithCodec("no-such-codec"))
	if err == nil {
		t.Fatal("NewNode accepted an unregistered codec")
	}
}

// TestCodecRegistryHasAllProtocols pins that linking the protocol table
// registers every row's codec.
func TestCodecRegistryHasAllProtocols(t *testing.T) {
	for _, p := range protocols.All {
		if _, ok := wire.Lookup(p.Codec); !ok {
			t.Errorf("codec %q not registered", p.Codec)
		}
	}
}
