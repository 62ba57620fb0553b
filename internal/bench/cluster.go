package bench

import (
	"fmt"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/apps/zk"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/netsim"
	"github.com/xft-consensus/xft/internal/protocols"
	"github.com/xft-consensus/xft/internal/smr"
)

// Protocol names a replication protocol under test: a row of the
// internal/protocols table.
type Protocol string

// The five protocols of the evaluation.
const (
	XPaxos  Protocol = "XPaxos"
	Paxos   Protocol = "Paxos"
	PBFT    Protocol = "PBFT"
	Zyzzyva Protocol = "Zyzzyva"
	Zab     Protocol = "Zab"
)

// AllProtocols is the Figure 7 line-up; Figure 10 adds Zab.
var AllProtocols = []Protocol{XPaxos, Paxos, PBFT, Zyzzyva}

// Replicas returns the number of replicas protocol p needs for fault
// threshold t.
func (p Protocol) Replicas(t int) int { return protocols.ByName(string(p)).Replicas(t) }

// AppKind selects the replicated application.
type AppKind int

const (
	// NullApp replicates the paper's null service (microbenchmarks).
	NullApp AppKind = iota
	// ZKApp replicates the ZooKeeper-like store (macro-benchmark).
	ZKApp
)

// Spec describes one deployment.
type Spec struct {
	Protocol Protocol
	T        int
	App      AppKind
	// ReqSize is the microbenchmark's request size (1/0 and 4/0).
	ReqSize   int
	Clients   int
	BatchSize int
	// PipelineWindow caps the XPaxos primary's in-flight batches
	// (0 → the protocol default; 1 → lock-step).
	PipelineWindow int
	// ReplicaRegions[i] is replica i's region; defaults to the paper's
	// Table 4 placement when nil. Clients live in the primary's region.
	ReplicaRegions []int
	// EgressMBps is each node's outbound bandwidth in MB/s (the WAN
	// bottleneck). Zero disables bandwidth modeling.
	EgressMBps float64
	Seed       int64
	// CostModel overrides the per-core paper cost model (used by the
	// modern-crypto experiments; nil keeps the default).
	CostModel *crypto.CostModel
	// SignedRequests makes clients of the four baseline protocols sign
	// their requests and replicas verify them before ordering (the
	// arena's apples-to-apples configuration; XPaxos always
	// authenticates). Off by default for paper fidelity.
	SignedRequests bool
	// VerifyLanes sets how many deferred verification jobs each
	// simulated node runs at once (netsim.Config.VerifyLanes; 0 → one
	// lane).
	VerifyLanes int
}

// Table4Regions returns the paper's replica placement: Table 4 for
// t=1 (primary CA, follower VA, then JP and — for the 3t+1 protocols —
// EU), Section 5.2's list for t=2.
func Table4Regions(p Protocol, t int) []int {
	order := []int{CA, OR, VA, JP, EU, AU, SG}
	if t == 1 {
		order = []int{CA, VA, JP, EU}
	}
	return order[:p.Replicas(t)]
}

// Cluster is a ready-to-run deployment.
type Cluster struct {
	Spec    Spec
	Net     *netsim.Network
	Primary smr.NodeID
	// Meters[i] is replica i's crypto meter.
	Meters []*crypto.Meter

	clients []*clientHandle
}

// clientHandle is one closed-loop client and the commit callback the
// experiment driver installs on it.
type clientHandle struct {
	protocols.Client
	onCommit protocols.OnCommit
}

// Invoke submits an operation on client ci (must be called from event
// context or before the run starts).
func (c *Cluster) Invoke(ci int, op []byte) { c.clients[ci].Invoke(op) }

// SetOnCommit installs the commit callback for client ci.
func (c *Cluster) SetOnCommit(ci int, fn func(op, rep []byte, lat time.Duration)) {
	c.clients[ci].onCommit = fn
}

// NumClients returns the number of clients.
func (c *Cluster) NumClients() int { return len(c.clients) }

// newApp builds a fresh application instance.
func (s Spec) newApp() smr.Application {
	switch s.App {
	case ZKApp:
		return zk.NewStore()
	default:
		return &kv.Null{}
	}
}

// Build constructs the deployment over a fresh simulated WAN.
func Build(spec Spec) *Cluster {
	if spec.T == 0 {
		spec.T = 1
	}
	if spec.BatchSize == 0 {
		spec.BatchSize = 20 // the paper's batch size
	}
	if spec.Clients == 0 {
		spec.Clients = 1
	}
	proto := protocols.ByName(string(spec.Protocol))
	n := proto.Replicas(spec.T)
	regions := spec.ReplicaRegions
	if regions == nil {
		regions = Table4Regions(spec.Protocol, spec.T)
	}
	if len(regions) != n {
		panic(fmt.Sprintf("bench: %d regions for %d replicas", len(regions), n))
	}
	regionOf := make(map[smr.NodeID]int, n)
	for i := 0; i < n; i++ {
		regionOf[smr.NodeID(i)] = regions[i]
	}
	// Clients co-locate with the (initial) primary — replica 0 in every
	// protocol here (Table 4).
	for i := 0; i < spec.Clients; i++ {
		regionOf[smr.ClientIDBase+smr.NodeID(i)] = regions[0]
	}

	cm := costModel() // per-core costs (8-way parallel crypto)
	if spec.CostModel != nil {
		cm = *spec.CostModel
	}
	net := netsim.New(netsim.Config{
		Latency:           EC2Model(regionOf, false),
		EgressBytesPerSec: spec.EgressMBps * 1e6,
		CostModel:         cm,
		VerifyLanes:       spec.VerifyLanes,
		Seed:              spec.Seed,
	})
	suite := crypto.NewSimSuite(spec.Seed + 1)

	c := &Cluster{Spec: spec, Net: net, Primary: 0}
	// Detection (request retransmission) after 2Δ; the view-change
	// timer gets 4Δ = 5 s — checkpoints every 32 batches bound the
	// transferred state (32 × 20 × 1 kB ≈ 640 kB per log, ≈1 s of WAN
	// transfer), so 4Δ comfortably covers the 2Δ collection window
	// plus state transfer while bounding time wasted on views whose
	// group contains a crashed replica.
	delta := DeltaFromTable3()
	params := protocols.Params{
		T: spec.T, Delta: delta, BatchSize: spec.BatchSize,
		RequestTimeout: 2 * delta, ViewChangeTimeout: 4 * delta,
		SignedRequests: spec.SignedRequests, PipelineWindow: spec.PipelineWindow,
		CheckpointInterval: 32,
	}
	for i := 0; i < n; i++ {
		meter := crypto.NewMeter(suite)
		params.Suite = meter
		c.Meters = append(c.Meters, meter)
		net.AddNode(smr.NodeID(i), proto.NewReplica(smr.NodeID(i), params, spec.newApp()), netsim.WithMeter(meter))
	}
	for i := 0; i < spec.Clients; i++ {
		id := smr.ClientIDBase + smr.NodeID(i)
		params.Suite = crypto.NewMeter(suite)
		h := &clientHandle{}
		h.Client = proto.NewClient(id, params, func(op, rep []byte, lat time.Duration) {
			if h.onCommit != nil {
				h.onCommit(op, rep, lat)
			}
		})
		net.AddNode(id, h.Client)
		c.clients = append(c.clients, h)
	}
	return c
}
