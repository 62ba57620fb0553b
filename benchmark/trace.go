package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/xft-consensus/xft/internal/smr"
)

// A span is one call across a layer boundary, recorded from the
// harness's side of the boundary. Times are ns since epoch. Client and
// TS, or SN, identify the request or batch where the boundary exposes
// them (a message, a commit notification); elsewhere the parent — the
// Step the call was made from — is the link to the request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Node   int    `json:"node"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Client int    `json:"client,omitempty"`
	TS     uint64 `json:"ts,omitempty"`
	SN     uint64 `json:"sn,omitempty"`
}

// maxSpansPerNode bounds the span memory of a traced pass. Every call
// is counted; only the first maxSpansPerNode calls a node makes inside
// the measured window are also kept as spans, so the kept spans form
// whole trees over one stretch of time rather than a thinned forest.
const maxSpansPerNode = 1 << 15

// tracer collects the counters and spans of one traced pass.
type tracer struct {
	on     atomic.Bool // inside the measured window
	nextID atomic.Uint64

	mu    sync.Mutex
	nodes []*nodeTrace
	wire  *nodeTrace // the codec has no node: one shared record

	windows     int     // measured windows so far (one per round)
	from        int64   // start of the open window
	seconds     float64 // total length of the closed windows
	viewChanges atomic.Int64
	samples     sampled
	grown, open cumulative // growth over the closed windows; reading at the open one's start
	stopProbe   chan struct{}
	probeDone   chan struct{}
	rounds      []roundTimes
	totals      totals
}

// active is the tracer the traced codec reports to; the codec registry
// is process-wide, so the codec cannot be handed a tracer of its own.
var active atomic.Pointer[tracer]

func newTracer() *tracer {
	t := &tracer{}
	t.wire = &nodeTrace{t: t, id: -1, role: "wire", counts: newCounts()}
	return t
}

// node makes the record of one node's wrappers.
func (t *tracer) node(id smr.NodeID, role string) *nodeTrace {
	n := &nodeTrace{t: t, id: int(id), role: role, counts: newCounts()}
	t.mu.Lock()
	t.nodes = append(t.nodes, n)
	t.mu.Unlock()
	return n
}

// callStats is a count and a total time.
type callStats struct {
	n  int64
	ns int64
}

func (c *callStats) add(ns int64) { c.n++; c.ns += ns }

func (c *callStats) meanUS() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.n) / 1e3
}

func (c *callStats) merge(o callStats) { c.n += o.n; c.ns += o.ns }

// deferStats describes one kind of Env.Defer job.
type deferStats struct {
	work  callStats // the work function
	wait  callStats // Defer call to the start of apply on the loop
	inbox callStats // end of work to the start of apply
}

// counts is everything the wrappers of one node count. Merging the
// counts of several nodes gives a role's or the cluster's totals.
type counts struct {
	sign, verify, batch, mac callStats             // crypto calls; batch counts BatchVerify calls
	batchedSigs              int64                 // signatures checked inside those
	steps                    map[string]*callStats // Step by event class
	stepNS                   int64
	kinds                    map[string]*deferStats
	submitWait               callStats
	timers                   int64
	send                     callStats
	encode, decode           callStats // wire record only
	wireBytes                int64
	walAppend, walSync       callStats
	walTruncate              callStats
	walBytes                 int64
	walSyncMS                []float64
	exec, snapshot           callStats
	commits, batches         int64 // Observer: requests and entries
}

func newCounts() counts {
	return counts{steps: map[string]*callStats{}, kinds: map[string]*deferStats{}}
}

func (c *counts) step(class string) *callStats {
	if c.steps[class] == nil {
		c.steps[class] = &callStats{}
	}
	return c.steps[class]
}

func (c *counts) kind(kind string) *deferStats {
	if c.kinds[kind] == nil {
		c.kinds[kind] = &deferStats{}
	}
	return c.kinds[kind]
}

func (c *counts) merge(o *counts) {
	for _, p := range [][2]*callStats{
		{&c.sign, &o.sign}, {&c.verify, &o.verify}, {&c.batch, &o.batch}, {&c.mac, &o.mac},
		{&c.submitWait, &o.submitWait}, {&c.send, &o.send}, {&c.encode, &o.encode}, {&c.decode, &o.decode},
		{&c.walAppend, &o.walAppend}, {&c.walSync, &o.walSync}, {&c.walTruncate, &o.walTruncate},
		{&c.exec, &o.exec}, {&c.snapshot, &o.snapshot},
	} {
		p[0].merge(*p[1])
	}
	for class, cs := range o.steps {
		c.step(class).merge(*cs)
	}
	for kind, ds := range o.kinds {
		k := c.kind(kind)
		k.work.merge(ds.work)
		k.wait.merge(ds.wait)
		k.inbox.merge(ds.inbox)
	}
	c.batchedSigs += o.batchedSigs
	c.stepNS += o.stepNS
	c.timers += o.timers
	c.wireBytes += o.wireBytes
	c.walBytes += o.walBytes
	c.walSyncMS = append(c.walSyncMS, o.walSyncMS...)
	c.commits += o.commits
	c.batches += o.batches
}

func (c *counts) cryptoNS() int64 { return c.sign.ns + c.verify.ns + c.batch.ns + c.mac.ns }

// nodeTrace is what the wrappers around one node record. The event
// loop, deferred work and crypto pool workers all report here, so one
// mutex guards it; it is taken once per call.
type nodeTrace struct {
	t    *tracer
	id   int
	role string // primary, follower, passive or client (initial roles)

	// sentAt, set by a client, tells when an op was handed to the node.
	sentAt func(op []byte) int64

	// curStep is the Step span in progress on the event loop, 0 outside
	// Step. deferred counts Env.Defer jobs whose work is running.
	curStep  atomic.Uint64
	deferred atomic.Int64
	walWork  atomic.Uint64 // the wal-commit job in flight (one at a time)

	mu sync.Mutex
	counts
	spans       []span
	peerDown    int64 // first PeerDown seen, ns since epoch
	viewChanges []int64
}

// record counts one call and, while there is room, keeps its span.
func (n *nodeTrace) record(cs *callStats, s span) {
	n.mu.Lock()
	cs.add(s.End - s.Start)
	if len(n.spans) < maxSpansPerNode {
		s.Node = n.id
		n.spans = append(n.spans, s)
	}
	n.mu.Unlock()
}

// timed runs f as one call across a layer boundary: counted in cs and
// kept as a span while the measured window is open, just run
// otherwise. It returns the time f took, 0 outside the window.
func (n *nodeTrace) timed(cs *callStats, layer, name string, parent uint64, f func()) int64 {
	if !n.t.on.Load() {
		f()
		return 0
	}
	sp := span{ID: n.t.nextID.Add(1), Parent: parent, Name: name, Layer: layer, Start: now()}
	f()
	sp.End = now()
	n.record(cs, sp)
	return sp.End - sp.Start
}

// loopParent is the parent of a call that may come from the event loop
// or from deferred work: the Step in progress when no deferred work of
// this node is running (then the call can only be the loop's), and
// unknown otherwise.
func (n *nodeTrace) loopParent() uint64 {
	if n.deferred.Load() != 0 {
		return 0
	}
	return n.curStep.Load()
}

// selfTimes returns, per span id, the span's duration minus the part
// of it that its child spans cover. Children may overlap each other
// and may stick out of the parent; only the union of their overlap
// with the parent is subtracted.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			a, b := k.Start, k.End
			if a < edge {
				a = edge
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// allSpans gathers every node's kept spans in start order. The nodes
// have stopped by the time it is called.
func (t *tracer) allSpans() []span {
	var all []span
	for _, n := range append(t.nodes, t.wire) {
		all = append(all, n.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
