package xpaxos

import (
	"fmt"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/faults"
	"github.com/xft-consensus/xft/internal/netsim"
	"github.com/xft-consensus/xft/internal/smr"
)

// watchKey names one client request.
type watchKey struct {
	Client smr.NodeID
	TS     uint64
}

// cluster wires an XPaxos deployment over the network simulator for
// tests: n replicas (KV stores) and any number of clients.
type cluster struct {
	t        *testing.T
	n, tf    int
	net      *netsim.Network
	suite    crypto.Suite
	replicas []*Replica
	stores   []*kv.Store
	clients  []*Client

	// commits records observer notifications: per replica, per (client,
	// ts) the (view, seq) it committed at. Used to assert Lemma 1.
	commits map[smr.NodeID]map[watchKey][]smr.Committed

	// detections records FD convictions per replica.
	detections map[smr.NodeID][]string
}

type clusterOpts struct {
	t       int
	latency time.Duration
	cfgMod  func(id smr.NodeID, c *Config)
	// filter, if set, sits between every replica and the network.
	filter     faults.SendFilter
	clients    int
	clientMod  func(id smr.NodeID, c *ClientConfig)
	seed       int64
	delta      time.Duration
	reqTimeout time.Duration
	// probeInterval/probeTimeout enable the simulator's keepalive
	// model (netsim.StartHealthMonitors over the replicas), feeding
	// PeerDown/PeerUp events to the replicas like the live transport's
	// prober does.
	probeInterval time.Duration
	probeTimeout  time.Duration
	// monitorClients includes the clients in the health-monitor set, so
	// they receive PeerDown/PeerUp for replicas (the live transport's
	// prober feeds clients the same way).
	monitorClients bool
}

func newCluster(t *testing.T, opts clusterOpts) *cluster {
	t.Helper()
	if opts.t == 0 {
		opts.t = 1
	}
	if opts.latency == 0 {
		opts.latency = 10 * time.Millisecond
	}
	if opts.delta == 0 {
		opts.delta = 100 * time.Millisecond
	}
	if opts.reqTimeout == 0 {
		opts.reqTimeout = 500 * time.Millisecond
	}
	n := 2*opts.t + 1
	c := &cluster{
		t:          t,
		n:          n,
		tf:         opts.t,
		suite:      crypto.NewSimSuite(opts.seed + 1),
		commits:    make(map[smr.NodeID]map[watchKey][]smr.Committed),
		detections: make(map[smr.NodeID][]string),
	}
	c.net = netsim.New(netsim.Config{
		Latency:       netsim.Uniform{Delay: opts.latency},
		CostModel:     crypto.DefaultCostModel(),
		Seed:          opts.seed,
		ProbeInterval: opts.probeInterval,
		ProbeTimeout:  opts.probeTimeout,
	})
	for i := 0; i < n; i++ {
		id := smr.NodeID(i)
		store := kv.NewStore()
		c.stores = append(c.stores, store)
		cfg := Config{
			N: n, T: opts.t,
			Suite:             crypto.NewMeter(c.suite),
			Delta:             opts.delta,
			BatchSize:         4,
			BatchTimeout:      2 * time.Millisecond,
			RequestTimeout:    opts.reqTimeout,
			ViewChangeTimeout: 4 * opts.delta,
		}
		cfg.Observer = func(cm smr.Committed) {
			byReq, ok := c.commits[cm.Replica]
			if !ok {
				byReq = make(map[watchKey][]smr.Committed)
				c.commits[cm.Replica] = byReq
			}
			k := watchKey{Client: cm.Client, TS: cm.ClientTS}
			byReq[k] = append(byReq[k], cm)
		}
		cfg.OnFaultDetected = func(culprit smr.NodeID, kind string, sn smr.SeqNum) {
			c.detections[id] = append(c.detections[id], fmt.Sprintf("%s:%d", kind, culprit))
		}
		if opts.cfgMod != nil {
			opts.cfgMod(id, &cfg)
		}
		r := NewReplica(id, cfg, store)
		c.replicas = append(c.replicas, r)
		if opts.filter != nil {
			c.net.AddNode(id, faults.Wrap(r, opts.filter))
		} else {
			c.net.AddNode(id, r)
		}
	}
	for i := 0; i < opts.clients; i++ {
		id := smr.ClientIDBase + smr.NodeID(i)
		ccfg := ClientConfig{
			N: n, T: opts.t,
			Suite:          crypto.NewMeter(c.suite),
			RequestTimeout: opts.reqTimeout,
		}
		if opts.clientMod != nil {
			opts.clientMod(id, &ccfg)
		}
		cl, err := NewClient(id, ccfg)
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		c.clients = append(c.clients, cl)
		c.net.AddNode(id, cl)
	}
	if opts.probeInterval > 0 {
		ids := make([]smr.NodeID, n)
		for i := range ids {
			ids[i] = smr.NodeID(i)
		}
		if opts.monitorClients {
			for i := 0; i < opts.clients; i++ {
				ids = append(ids, smr.ClientIDBase+smr.NodeID(i))
			}
		}
		c.net.StartHealthMonitors(ids...)
	}
	return c
}

// run advances virtual time by d.
func (c *cluster) run(d time.Duration) { c.net.RunFor(d) }

// invokeAll schedules ops on client ci sequentially (closed loop),
// asserting each reply. Returns a completion counter pointer.
func (c *cluster) invokeSeq(ci int, ops [][]byte, onDone func()) *int {
	done := new(int)
	cl := c.clients[ci]
	idx := 0
	prev := cl.cfg.OnCommit
	cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) {
		if prev != nil {
			prev(op, rep, lat)
		}
		*done++
		idx++
		if idx < len(ops) {
			cl.Invoke(ops[idx])
		} else if onDone != nil {
			onDone()
		}
	}
	c.net.At(c.net.Now(), func() { cl.Invoke(ops[0]) })
	return done
}

// checkLemma1 asserts total order: no two replicas committed different
// requests at the same (view-era) sequence number with conflicting
// ordering, expressed as: for every request key, the set of (seq)
// values across replicas must agree per view era; and no sequence
// number maps to two different requests across benign replicas.
func (c *cluster) checkLemma1() {
	c.t.Helper()
	// For each replica pair, a sequence number committed on both (in
	// the highest view each saw) must hold the same request.
	type snView struct {
		sn smr.SeqNum
	}
	assign := make(map[smr.SeqNum]map[watchKey]bool) // sn -> requests seen there
	for _, byReq := range c.commits {
		for k, cms := range byReq {
			for _, cm := range cms {
				reqs, ok := assign[cm.Seq]
				if !ok {
					reqs = make(map[watchKey]bool)
					assign[cm.Seq] = reqs
				}
				reqs[k] = true
			}
		}
	}
	_ = snView{}
	for sn, reqs := range assign {
		// Multiple requests at one sequence number are only legal when
		// they were part of the same batch. Verify against an actual
		// commit-log entry from any replica holding sn.
		if len(reqs) <= 1 {
			continue
		}
		var entry *CommitEntry
		for _, r := range c.replicas {
			if e, ok := r.CommitLogEntry(sn); ok {
				if entry == nil || e.View() > entry.View() {
					entry = e
				}
			}
		}
		if entry == nil {
			continue // truncated by checkpoints everywhere; skip
		}
		inBatch := make(map[watchKey]bool, len(entry.Batch.Reqs))
		for i := range entry.Batch.Reqs {
			rq := &entry.Batch.Reqs[i]
			inBatch[watchKey{Client: rq.Client, TS: rq.TS}] = true
		}
		for k := range reqs {
			if !inBatch[k] {
				c.t.Errorf("sequence %d committed conflicting requests: %v not in batch", sn, k)
			}
		}
	}
}

// checkStoresConverge asserts all replicas that executed to the same
// sequence number hold identical application state.
func (c *cluster) checkStoresConverge(ids ...smr.NodeID) {
	c.t.Helper()
	var ref []byte
	var refEx smr.SeqNum
	first := true
	for _, id := range ids {
		r := c.replicas[id]
		snap := c.stores[id].Snapshot()
		if first {
			ref, refEx, first = snap, r.ex, false
			continue
		}
		if r.ex != refEx {
			c.t.Errorf("replica %d executed to %d, replica %d to %d", ids[0], refEx, id, r.ex)
			continue
		}
		if string(snap) != string(ref) {
			c.t.Errorf("replica %d state diverged from replica %d", id, ids[0])
		}
	}
}
