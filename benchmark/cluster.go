package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
	"github.com/xft-consensus/xft/internal/wal"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// scratchDir holds everything a run writes: WAL directories and span
// files. It is relative to the working directory so a run never leaves
// its checkout, and it is listed in .gitignore.
const scratchDir = ".bench_build"

// epoch is the zero of every timestamp the harness takes.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// host is one transport.Node and the goroutine running it.
type host struct {
	id   smr.NodeID
	node *transport.Node
	done chan struct{} // closed once node.Run has returned
}

func (h *host) run() {
	h.done = make(chan struct{})
	go func() {
		h.node.Run()
		close(h.done)
	}()
}

// stop returns once every goroutine of the node has exited; state owned
// by the hosted protocol node may be read afterwards. It is safe on a
// host that was never built or never run.
func (h *host) stop() {
	if h.node == nil {
		return
	}
	h.node.Stop()
	if h.done != nil {
		<-h.done
	}
}

type replica struct {
	host
	rep   *xpaxos.Replica
	store *kv.Store
	log   *wal.Log // nil without a WAL
	live  bool
	seen  atomic.Uint64 // highest sequence number the commit observer has seen
}

// cluster is n replicas and the workload's client nodes in this
// process, wired as cmd/xft-server and cmd/xft-client wire them: one
// transport.Node each on an ephemeral loopback port, real Ed25519,
// a real WAL, the kv store. No simulator and no cost model.
type cluster struct {
	w        *workload
	tr       *tracer // nil on an untraced pass
	dir      string
	replicas []*replica
	clients  []*client
	started  int64         // when the replicas began to run, and their keepalive tickers to tick
	setup    time.Duration // boot start to every client's first commit
}

// boot builds and starts a cluster and commits one request per client,
// so keys, certificates, listeners, dials and handshakes are all paid
// before it returns. The time that took is the set-up time.
func boot(w *workload, seed int64, tr *tracer) (*cluster, error) {
	start := time.Now()
	c := &cluster{w: w, tr: tr}
	n := 2*w.t + 1
	base := crypto.NewEd25519Suite(n+1024, seed)
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "wal-")
	if err != nil {
		return nil, err
	}
	c.dir = dir

	// Every node gets the same map; it is complete before any node
	// runs and never written afterwards.
	peers := map[smr.NodeID]string{}
	opts := func(id smr.NodeID) ([]transport.Option, error) {
		o := []transport.Option{transport.WithKeepalive(w.probe, w.probeTO)}
		if tr != nil {
			o = append(o, transport.WithCodec(tracedCodecName))
		}
		if w.tls {
			sec, err := transport.AutoTLS(base, id)
			if err != nil {
				return nil, err
			}
			o = append(o, transport.WithTLS(sec))
		}
		return o, nil
	}

	group := xpaxos.SyncGroup(n, w.t, 0)
	for i := 0; i < n; i++ {
		id := smr.NodeID(i)
		r := &replica{store: kv.NewStore(), live: true}
		r.id = id
		c.replicas = append(c.replicas, r)
		role := "follower"
		switch slices.Index(group, id) {
		case 0:
			role = "primary"
		case -1:
			role = "passive"
		}
		var nt *nodeTrace
		if tr != nil {
			nt = tr.node(id, role)
		}
		cfg := xpaxos.Config{
			N: n, T: w.t,
			Suite:              traceSuite(nt, base),
			Delta:              w.delta,
			RequestTimeout:     w.reqTO,
			CheckpointInterval: checkpointInterval,
			EnableFD:           true,
		}
		// The observer is set on every pass, traced or not, so both run
		// the same configuration; settle needs it to see the replicas
		// come to rest.
		cfg.Observer = func(cm smr.Committed) {
			r.seen.Store(uint64(cm.Seq))
			if nt != nil {
				nt.observeCommit(cm)
			}
		}
		if nt != nil {
			cfg.OnViewChange = nt.observeViewChange
		}
		if w.wal {
			r.log, err = wal.Open(filepath.Join(dir, fmt.Sprintf("r%d", i)), wal.Options{})
			if err != nil {
				c.stop()
				return nil, err
			}
			cfg.WAL = traceWAL(nt, r.log)
		}
		r.rep = xpaxos.NewReplica(id, cfg, traceApp(nt, r.store))
		o, err := opts(id)
		if err != nil {
			c.stop()
			return nil, err
		}
		r.node, err = transport.NewNode(id, traceNode(nt, r.rep), "127.0.0.1:0", peers, o...)
		if err != nil {
			c.stop()
			return nil, err
		}
		peers[id] = r.node.Addr()
	}
	for i := 0; i < w.clients; i++ {
		id := smr.ClientIDBase + smr.NodeID(i)
		var nt *nodeTrace
		if tr != nil {
			nt = tr.node(id, "client")
		}
		cl := newClient(id, w, seed, nt)
		c.clients = append(c.clients, cl)
		cl.cl, err = xpaxos.NewClient(id, xpaxos.ClientConfig{
			N: n, T: w.t, Suite: traceSuite(nt, base),
			RequestTimeout: w.reqTO,
			Window:         w.window,
			OnCommit:       cl.onCommit,
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		o, err := opts(id)
		if err != nil {
			c.stop()
			return nil, err
		}
		cl.node, err = transport.NewNode(id, traceNode(nt, cl.cl), "127.0.0.1:0", peers, o...)
		if err != nil {
			c.stop()
			return nil, err
		}
		peers[id] = cl.node.Addr()
	}
	for _, r := range c.replicas {
		r.run()
	}
	c.started = now()
	// Every node's keepalive ticker starts when the node does. Started
	// together, replicas and clients notice a dead primary in the same
	// millisecond, and whether a client's re-sent requests then reach
	// the next primary just before or just after it has entered the new
	// view is a coin flip worth 400 ms of outage (see README). Clients
	// start a little later so their ticks trail the replicas'.
	time.Sleep(25 * time.Millisecond)
	for _, cl := range c.clients {
		cl.run()
	}
	for _, cl := range c.clients {
		cl.issueOne()
	}
	for _, cl := range c.clients {
		if !cl.waitIdle(10 * time.Second) {
			c.stop()
			return nil, fmt.Errorf("%s: client %d did not commit its first request within 10s", w.name, cl.id)
		}
	}
	c.setup = time.Since(start)
	return c, nil
}

// kill stops one replica the way a crash looks to its peers: every
// connection closes and nothing answers any more.
func (c *cluster) kill(i int) {
	r := c.replicas[i]
	if !r.live {
		return
	}
	r.live = false
	r.stop()
	if r.log != nil {
		r.log.Close()
	}
}

// stop ends every node still running, closes the WALs and removes
// their directory. It is safe on a partly built cluster.
func (c *cluster) stop() {
	c.stopClients()
	for i := range c.replicas {
		c.kill(i)
	}
	os.RemoveAll(c.dir)
}

// settle waits, after the clients have stopped, until the live
// replicas have come to rest: t+1 of them have committed up to the same
// sequence number and none has moved for 50 ms. The final-state oracle
// compares replicas, so it needs them at rest; a fixed pause would be
// too short on a slow box and wasted on a fast one. It gives up after
// 5 s and leaves the verdict to the oracle.
func (c *cluster) settle() {
	var last []uint64
	rest := time.Now()
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		var cur []uint64
		for _, r := range c.replicas {
			if r.live {
				cur = append(cur, r.seen.Load())
			}
		}
		if !slices.Equal(cur, last) {
			last, rest = cur, time.Now()
			continue
		}
		top := slices.Sorted(slices.Values(cur))
		if n := len(top); n > c.w.t && top[n-1] == top[n-1-c.w.t] && time.Since(rest) >= 50*time.Millisecond {
			return
		}
	}
}

// hosts lists every node of the cluster, replicas first.
func (c *cluster) hosts() []*host {
	var hs []*host
	for _, r := range c.replicas {
		hs = append(hs, &r.host)
	}
	for _, cl := range c.clients {
		hs = append(hs, &cl.host)
	}
	return hs
}

func (c *cluster) stopClients() {
	for _, cl := range c.clients {
		cl.stop()
	}
}
