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
// The same protocol code also runs under the deterministic WAN
// simulator used by the test-suite and the paper-reproduction
// experiments; see internal/bench and cmd/xft-bench.
package xft

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
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

// Options configures an in-process XPaxos cluster.
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

// Cluster is a running in-process XPaxos deployment.
type Cluster struct {
	opts     Options
	rt       *smr.LiveRuntime
	suite    crypto.Suite
	n, t     int
	mu       sync.Mutex
	clients  int
	replicas []*xpaxos.Replica
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
	n := 2*opts.T + 1
	c := &Cluster{opts: opts, n: n, t: opts.T}
	c.suite = crypto.NewEd25519Suite(n+1024, opts.Seed)
	c.rt = smr.NewLiveRuntime()
	for i := 0; i < n; i++ {
		id := smr.NodeID(i)
		cfg := xpaxos.Config{
			N: n, T: opts.T,
			Suite:              crypto.NewMeter(c.suite),
			Delta:              opts.Delta,
			BatchSize:          opts.BatchSize,
			PipelineWindow:     opts.PipelineWindow,
			CheckpointInterval: 256,
			EnableFD:           opts.EnableFD,
		}
		if opts.OnViewChange != nil {
			cb := opts.OnViewChange
			cfg.OnViewChange = func(v smr.View, at time.Duration) { cb(id, v) }
		}
		if opts.OnFaultDetected != nil {
			cb := opts.OnFaultDetected
			cfg.OnFaultDetected = func(culprit smr.NodeID, kind string, sn smr.SeqNum) { cb(id, culprit, kind) }
		}
		r := xpaxos.NewReplica(id, cfg, opts.NewApp())
		c.replicas = append(c.replicas, r)
		c.rt.AddNode(id, r)
	}
	c.rt.Start()
	return c, nil
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stopped {
		c.stopped = true
		c.rt.Stop()
	}
}

// N returns the number of replicas.
func (c *Cluster) N() int { return c.n }

// T returns the fault threshold.
func (c *Cluster) T() int { return c.t }

// Client submits operations to the cluster. Safe for use from one
// goroutine at a time (requests are issued closed-loop, as in the
// paper's benchmarks).
type Client struct {
	cluster *Cluster
	id      smr.NodeID
	mu      sync.Mutex
	done    chan result
}

type result struct {
	rep []byte
	lat time.Duration
}

// NewClient registers a new client with the cluster.
//
// Clients added after Start join the live runtime dynamically; the
// runtime supports that because node registration only races with
// message delivery, which is lock-protected.
func (c *Cluster) NewClient() *Client {
	c.mu.Lock()
	idx := c.clients
	c.clients++
	c.mu.Unlock()
	id := smr.ClientIDBase + smr.NodeID(idx)
	cl := &Client{cluster: c, id: id, done: make(chan result, 1)}
	xc, err := xpaxos.NewClient(id, xpaxos.ClientConfig{
		N: c.n, T: c.t,
		Suite:          crypto.NewMeter(c.suite),
		RequestTimeout: 4 * c.opts.Delta,
		OnCommit: func(op, rep []byte, lat time.Duration) {
			cl.done <- result{rep: rep, lat: lat}
		},
	})
	if err != nil {
		// Unreachable: the only rejected field (Window) is left at its
		// closed-loop default here.
		panic(err)
	}
	c.rt.AddNode(id, xc) // the runtime is started, so the client launches now
	return cl
}

// Invoke submits op and blocks until it commits, returning the reply.
func (cl *Client) Invoke(op []byte) ([]byte, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.cluster.rt.SubmitWait(cl.id, smr.Invoke{Op: op})
	select {
	case r := <-cl.done:
		return r.rep, nil
	case <-time.After(2 * time.Minute):
		return nil, fmt.Errorf("xft: request timed out")
	}
}

// InvokeTimed is Invoke plus the commit latency.
func (cl *Client) InvokeTimed(op []byte) ([]byte, time.Duration, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	start := time.Now()
	cl.cluster.rt.SubmitWait(cl.id, smr.Invoke{Op: op})
	select {
	case r := <-cl.done:
		return r.rep, r.lat, nil
	case <-time.After(2 * time.Minute):
		return nil, time.Since(start), fmt.Errorf("xft: request timed out")
	}
}
