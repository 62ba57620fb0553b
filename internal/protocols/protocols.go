// Package protocols is the one table of replication protocols this
// repository can deploy: XPaxos and the four baselines the paper
// compares it against. The benchmark harness (internal/bench) and the
// live loopback arena test (internal/transport) build replicas and
// clients only through it, so nothing outside this file switches on
// protocol. Adding a protocol is one package plus one row here.
package protocols

import (
	"time"

	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/paxos"
	"github.com/xft-consensus/xft/internal/pbft"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
	"github.com/xft-consensus/xft/internal/zab"
	"github.com/xft-consensus/xft/internal/zyzzyva"
)

// Params is what a deployment fixes for whichever protocol it runs.
// Zero values select each protocol's own defaults.
type Params struct {
	// T is the number of tolerated faults; the row's Replicas gives n.
	T     int
	Suite crypto.Suite
	// Delta is Δ, the bound on timely communication: XPaxos's
	// view-change timer unit and the Zyzzyva client's fast-path
	// deadline.
	Delta          time.Duration
	BatchSize      int
	BatchTimeout   time.Duration
	RequestTimeout time.Duration

	// SignedRequests turns on client-request authentication on the
	// four baselines (baseline.Config); XPaxos always signs. Both verify
	// on the shared pool.
	SignedRequests bool

	// XPaxos only (xpaxos.Config).
	PipelineWindow     int
	ViewChangeTimeout  time.Duration
	CheckpointInterval uint64
}

// baseline is the configuration the four baselines share.
func (p Params) baseline() baseline.Config {
	return baseline.Config{
		T: p.T, Suite: p.Suite, BatchSize: p.BatchSize, BatchTimeout: p.BatchTimeout,
		RequestTimeout: p.RequestTimeout, SignedRequests: p.SignedRequests,
	}
}

func (p Params) zyzzyva() zyzzyva.Config {
	return zyzzyva.Config{Config: p.baseline(), CommitTimeout: p.Delta}
}

// Client is a closed-loop client of any protocol: a node that submits
// one operation at a time and reports each commit through the callback
// it was built with.
type Client interface {
	smr.Node
	Invoke(op []byte)
}

// OnCommit receives a committed operation, its reply and its latency.
type OnCommit = func(op, rep []byte, latency time.Duration)

// Protocol is one row of the table.
type Protocol struct {
	Name string
	// Codec is the protocol's wire-codec name in the internal/wire
	// registry.
	Codec string
	// Replicas returns n for fault threshold t.
	Replicas   func(t int) int
	NewReplica func(id smr.NodeID, p Params, app smr.Application) smr.Node
	NewClient  func(id smr.NodeID, p Params, onCommit OnCommit) Client
}

func cft(t int) int { return 2*t + 1 }
func bft(t int) int { return 3*t + 1 }

// All is the table, in the arena's line-up order.
var All = []Protocol{
	{
		Name: "XPaxos", Codec: xpaxos.CodecName, Replicas: cft,
		NewReplica: func(id smr.NodeID, p Params, app smr.Application) smr.Node {
			return xpaxos.NewReplica(id, xpaxos.Config{
				T: p.T, Suite: p.Suite, Delta: p.Delta,
				BatchSize: p.BatchSize, BatchTimeout: p.BatchTimeout, PipelineWindow: p.PipelineWindow,
				RequestTimeout: p.RequestTimeout, ViewChangeTimeout: p.ViewChangeTimeout,
				CheckpointInterval: p.CheckpointInterval,
			}, app)
		},
		NewClient: func(id smr.NodeID, p Params, onCommit OnCommit) Client {
			cl, err := xpaxos.NewClient(id, xpaxos.ClientConfig{
				T: p.T, Suite: p.Suite, RequestTimeout: p.RequestTimeout, OnCommit: onCommit,
			})
			if err != nil {
				panic(err) // unreachable: only an oversized Window is rejected
			}
			return cl
		},
	},
	{
		Name: "Paxos", Codec: paxos.CodecName, Replicas: cft,
		NewReplica: func(id smr.NodeID, p Params, app smr.Application) smr.Node {
			return paxos.NewReplica(id, p.baseline(), app)
		},
		NewClient: func(id smr.NodeID, p Params, onCommit OnCommit) Client {
			cl := paxos.NewClient(id, p.baseline())
			cl.OnCommit = onCommit
			return cl
		},
	},
	{
		Name: "PBFT", Codec: pbft.CodecName, Replicas: bft,
		NewReplica: func(id smr.NodeID, p Params, app smr.Application) smr.Node {
			return pbft.NewReplica(id, p.baseline(), app)
		},
		NewClient: func(id smr.NodeID, p Params, onCommit OnCommit) Client {
			cl := pbft.NewClient(id, p.baseline())
			cl.OnCommit = onCommit
			return cl
		},
	},
	{
		Name: "Zyzzyva", Codec: zyzzyva.CodecName, Replicas: bft,
		NewReplica: func(id smr.NodeID, p Params, app smr.Application) smr.Node {
			return zyzzyva.NewReplica(id, p.zyzzyva(), app)
		},
		NewClient: func(id smr.NodeID, p Params, onCommit OnCommit) Client {
			cl := zyzzyva.NewClient(id, p.zyzzyva())
			cl.OnCommit = onCommit
			return cl
		},
	},
	{
		Name: "Zab", Codec: zab.CodecName, Replicas: cft,
		NewReplica: func(id smr.NodeID, p Params, app smr.Application) smr.Node {
			return zab.NewReplica(id, p.baseline(), app)
		},
		NewClient: func(id smr.NodeID, p Params, onCommit OnCommit) Client {
			cl := zab.NewClient(id, p.baseline())
			cl.OnCommit = onCommit
			return cl
		},
	},
}

// ByName returns the named row; it panics on a name outside the table.
func ByName(name string) Protocol {
	for _, p := range All {
		if p.Name == name {
			return p
		}
	}
	panic("protocols: unknown protocol " + name)
}
