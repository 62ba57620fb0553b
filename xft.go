// Package xft is the public API of this repository: an implementation
// of XFT ("cross fault tolerance") state-machine replication from
// "XFT: Practical Fault Tolerance Beyond Crashes" (OSDI 2016),
// centered on the XPaxos protocol.
//
// An XPaxos cluster runs n = 2t+1 replicas and, outside "anarchy"
// (Definition 2 of the paper), tolerates any combination of at most t
// crash faults, non-crash (Byzantine) machine faults and partitioned
// replicas — the reliability of Paxos/Raft plus protection against
// data corruption, at CFT resource cost.
//
// Quick start:
//
//	cluster, err := xft.NewCluster(xft.Options{T: 1, NewApp: func() xft.Application {
//	    return kv.NewStore()
//	}})
//	client := cluster.NewClient()
//	reply, err := client.Invoke(kv.PutOp("greeting", []byte("hello")))
//
// The common case is pipelined and batched: the primary keeps up to
// Options.PipelineWindow batches in flight concurrently (batch
// formation adapts to load — partial batches ship immediately when the
// pipeline is idle, and fill while it is busy), and signature
// verification of independent messages is scattered across a
// process-wide worker pool. Set PipelineWindow to 1 for the classic
// lock-step behavior.
//
// The cluster runs over loopback TCP with mutual TLS and keepalive
// probing, each replica and client assembled exactly as the
// cmd/xft-server and cmd/xft-client processes assemble theirs. The same
// protocol code also runs under the deterministic WAN simulator used by
// the test-suite and the paper-reproduction experiments; see
// internal/bench and cmd/xft-bench.
package xft

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/deploy"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// Application is the replicated service interface (re-exported from
// the internal framework).
type Application = smr.Application

// NodeID identifies replicas (0..n−1) and clients.
type NodeID = smr.NodeID

// View numbers XPaxos configurations.
type View = smr.View

// Options configures an XPaxos cluster in this process.
type Options struct {
	// T is the fault threshold; the cluster runs 2T+1 replicas.
	T int
	// NewApp builds one application instance per replica. Instances
	// must be deterministic and start identical.
	NewApp func() Application
	// Delta is the synchrony bound Δ (default 500 ms in-process).
	Delta time.Duration
	// BatchSize is the request batch size (default 20, as in the
	// paper).
	BatchSize int
	// PipelineWindow is how many batches the primary may keep in
	// flight at once (default 32). 1 reproduces the lock-step common
	// case: each batch must commit before the next is proposed.
	PipelineWindow int
	// EnableFD turns on the fault-detection mechanism (Section 4.4).
	EnableFD bool
	// Seed makes the cluster's keys deterministic (default 1).
	Seed int64
	// OnViewChange, if set, observes completed view changes.
	OnViewChange func(replica NodeID, newView View)
	// OnFaultDetected, if set, observes FD convictions.
	OnFaultDetected func(replica NodeID, culprit NodeID, kind string)
}

// Cluster is a running XPaxos deployment in this process: every replica
// and client is a node on its own loopback TCP endpoint, assembled as
// cmd/xft-server and cmd/xft-client assemble theirs — mutual TLS and
// keepalive probing on.
type Cluster struct {
	opts Options
	keys *crypto.Ed25519Suite
	// peers holds the replicas' addresses. It is complete before any
	// replica runs and never written afterwards; every node shares it.
	peers    map[smr.NodeID]string
	mu       sync.Mutex
	replicas []*deploy.Host
	clients  []*deploy.Host
	stopped  bool
}

// NewCluster builds and starts 2T+1 replicas.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.T < 1 {
		return nil, errors.New("xft: T must be at least 1")
	}
	if opts.NewApp == nil {
		return nil, errors.New("xft: NewApp is required")
	}
	if opts.Delta == 0 {
		opts.Delta = 500 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	c := &Cluster{opts: opts, keys: deploy.Keys(opts.T, opts.Seed), peers: map[smr.NodeID]string{}}
	for i := 0; i < c.N(); i++ {
		id := smr.NodeID(i)
		cfg := xpaxos.Config{
			Delta:          opts.Delta,
			BatchSize:      opts.BatchSize,
			PipelineWindow: opts.PipelineWindow,
			EnableFD:       opts.EnableFD,
		}
		if opts.OnViewChange != nil {
			cb := opts.OnViewChange
			cfg.OnViewChange = func(v smr.View, at time.Duration) { cb(id, v) }
		}
		if opts.OnFaultDetected != nil {
			cb := opts.OnFaultDetected
			cfg.OnFaultDetected = func(culprit smr.NodeID, kind string, sn smr.SeqNum) { cb(id, culprit, kind) }
		}
		_, h, err := c.spec(id).Replica(cfg, opts.NewApp())
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.peers[id] = h.Addr()
		c.replicas = append(c.replicas, h)
	}
	for _, h := range c.replicas {
		h.Start()
	}
	return c, nil
}

// spec is node id's deployment: a loopback port, the shared keys and
// replica addresses, and the server defaults.
func (c *Cluster) spec(id smr.NodeID) deploy.Spec {
	return deploy.Spec{
		ID: id, T: c.opts.T, Keys: c.keys,
		Listen: "127.0.0.1:0", Peers: c.peers,
		ProbeInterval: deploy.DefaultProbeInterval,
	}
}

// Stop shuts the cluster down and returns once every node has stopped.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stopped {
		c.stopped = true
		for _, h := range slices.Concat(c.clients, c.replicas) {
			h.Stop()
		}
	}
}

// N returns the number of replicas.
func (c *Cluster) N() int { return 2*c.opts.T + 1 }

// T returns the fault threshold.
func (c *Cluster) T() int { return c.opts.T }

// Client submits operations to the cluster. Safe for use from one
// goroutine at a time (requests are issued closed-loop, as in the
// paper's benchmarks).
type Client struct {
	host *deploy.Host
	err  error // why the client could not start; then host is nil
	mu   sync.Mutex
	done chan result
}

type result struct {
	rep []byte
	lat time.Duration
}

// NewClient starts a new client node and registers its address with
// every replica, which can then reply to it. A client that could not
// start returns the reason from every Invoke. NewClient panics on a
// stopped cluster.
func (c *Cluster) NewClient() *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		panic("xft: NewClient on a stopped Cluster")
	}
	id := smr.ClientIDBase + smr.NodeID(len(c.clients))
	cl := &Client{done: make(chan result, 1)}
	_, h, err := c.spec(id).Client(xpaxos.ClientConfig{
		RequestTimeout: 4 * c.opts.Delta,
		OnCommit: func(op, rep []byte, lat time.Duration) {
			cl.done <- result{rep: rep, lat: lat}
		},
	})
	if err != nil {
		cl.err = fmt.Errorf("xft: NewClient: %w", err)
		return cl
	}
	for _, r := range c.replicas {
		r.AddPeer(id, h.Addr())
	}
	h.Start()
	c.clients = append(c.clients, h)
	cl.host = h
	return cl
}

// Invoke submits op and blocks until it commits, returning the reply.
func (cl *Client) Invoke(op []byte) ([]byte, error) {
	rep, _, err := cl.InvokeTimed(op)
	return rep, err
}

// InvokeTimed is Invoke plus the commit latency.
func (cl *Client) InvokeTimed(op []byte) ([]byte, time.Duration, error) {
	if cl.err != nil {
		return nil, 0, cl.err
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	start := time.Now()
	cl.host.Submit(smr.Invoke{Op: op})
	select {
	case r := <-cl.done:
		return r.rep, r.lat, nil
	case <-time.After(2 * time.Minute):
		return nil, time.Since(start), fmt.Errorf("xft: request timed out")
	}
}
