// Package netsim models a wide-area network on top of a deterministic
// discrete-event engine with a virtual clock.
//
// It reproduces the three bottlenecks the XFT paper's evaluation
// depends on (Section 5):
//
//   - link latency: a per-pair one-way propagation delay with
//     multiplicative jitter and rare long-tail spikes, calibrated to the
//     paper's EC2 measurements (Table 3);
//   - egress bandwidth: each node owns an outbound link of configurable
//     capacity; messages serialize FIFO, which makes the leader's NIC
//     the bottleneck exactly as in Section 5.5;
//   - CPU: each node owns a single CPU queue; handling a message costs
//     the dispatch overhead plus whatever the node's crypto meter
//     recorded during the Step (Section 5.3 / Figure 8).
//
// The simulator also provides fault injection — crashes, recoveries,
// link cuts, full partitions — used by Figure 9 and the Byzantine
// test-suite.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// LatencyModel samples one-way propagation delays.
type LatencyModel interface {
	// OneWay returns the propagation delay from one node to another for
	// a single message. Implementations may randomize per call.
	OneWay(rng *rand.Rand, from, to smr.NodeID) time.Duration
}

// Uniform is a LatencyModel with a single delay for every pair.
type Uniform struct{ Delay time.Duration }

// OneWay implements LatencyModel.
func (u Uniform) OneWay(*rand.Rand, smr.NodeID, smr.NodeID) time.Duration { return u.Delay }

// Config parameterizes a Network.
type Config struct {
	// Latency is the propagation model (required).
	Latency LatencyModel
	// EgressBytesPerSec is the default per-node outbound capacity.
	// Zero means infinite bandwidth.
	EgressBytesPerSec float64
	// CostModel prices cryptographic work on the simulated CPUs.
	CostModel crypto.CostModel
	// FsyncCost is the modeled latency of one durable-storage job (a
	// WAL group commit: buffered appends plus one fsync). Jobs whose
	// Defer kind satisfies smr.IsDurableKind serialize on a per-node
	// disk unit charged this much each, overlapping the CPU, the crypto
	// units and the network exactly as the live runtime's deferred WAL
	// writer does. Zero models free durability.
	FsyncCost time.Duration
	// SignLanes and VerifyLanes set how many deferred jobs each node's
	// off-loop sign and verify units run concurrently. A job occupies
	// the earliest-free lane of its unit; jobs beyond the lane count
	// queue. This models the live runtime's ability to have several
	// Defer submissions in flight at once on the shared verification
	// pool. Zero means one lane, a fully-serialized unit.
	SignLanes   int
	VerifyLanes int
	// Seed drives all randomness.
	Seed int64
	// ProbeInterval and ProbeTimeout model the live transport's
	// connection keepalive (see internal/transport.WithKeepalive):
	// when StartHealthMonitors is called, each monitored node checks
	// each monitored peer every ProbeInterval and receives an
	// smr.PeerDown event once the peer has been unreachable — link cut
	// in either direction, or crashed — for ProbeTimeout, and an
	// smr.PeerUp when it answers again. Zero ProbeInterval disables
	// monitoring; zero ProbeTimeout defaults to 3x the interval,
	// matching the transport.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
}

// NodeStats aggregates per-node measurements.
type NodeStats struct {
	MsgsSent, MsgsRecv   uint64
	BytesSent, BytesRecv uint64
	// CPUBusy is the node's total CPU work (event-loop Steps plus
	// deferred crypto), in core-time: work spread across parallel
	// verification workers still counts at its full serial cost here,
	// matching Figure 8's percent-of-one-core accounting.
	CPUBusy time.Duration
	// AsyncBusy is the portion of CPUBusy performed off the event loop
	// (Env.Defer), and AsyncJobs the number of deferred completions.
	AsyncBusy time.Duration
	AsyncJobs uint64
	Crypto    crypto.Counts
}

// Network is the simulated WAN. It is not safe for concurrent use:
// everything happens on the simulation's single logical thread, whose
// clock and scheduler (Now, At, After, Step, Run, RunUntil, RunFor) and
// random source (Rand) the Network exposes directly.
type Network struct {
	engine
	cfg   Config
	nodes map[smr.NodeID]*simNode
	// downLinks holds directed links currently cut; key is [from,to].
	downLinks map[[2]smr.NodeID]bool
	// extraDelay holds per-directed-link additional one-way latency
	// (SetExtraDelay), modeling congested or lagging paths: messages
	// still deliver — unlike a cut link — but arbitrarily late, which is
	// exactly the "partitioned in time" asynchrony of the XFT fault
	// model (a slow replica counts against t just like a crashed one).
	extraDelay map[[2]smr.NodeID]time.Duration
	// linkClock enforces FIFO delivery per directed link: a message may
	// not arrive before an earlier message on the same link. The paper
	// assumes reliable (ordered) point-to-point channels (Section 2).
	linkClock map[[2]smr.NodeID]time.Duration
	// msgTypeCount counts sent messages by Type() for pattern tests.
	msgTypeCount map[string]uint64
	msgTypeBytes map[string]uint64
	// health holds the modeled keepalive monitors (StartHealthMonitors);
	// healthPairs fixes their iteration order so same-tick transitions
	// enqueue deterministically.
	health      map[[2]smr.NodeID]*linkHealth
	healthPairs [][2]smr.NodeID
	// Trace, if non-nil, observes every delivered message.
	Trace func(at time.Duration, from, to smr.NodeID, m smr.Message)
}

// New creates a network over a fresh engine.
func New(cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = Uniform{Delay: time.Millisecond}
	}
	return &Network{
		engine:       newEngine(cfg.Seed),
		cfg:          cfg,
		nodes:        make(map[smr.NodeID]*simNode),
		downLinks:    make(map[[2]smr.NodeID]bool),
		extraDelay:   make(map[[2]smr.NodeID]time.Duration),
		linkClock:    make(map[[2]smr.NodeID]time.Duration),
		msgTypeCount: make(map[string]uint64),
		msgTypeBytes: make(map[string]uint64),
	}
}

// NodeOption customizes a node at registration.
type NodeOption func(*simNode)

// WithMeter attaches a crypto meter whose recorded work is charged to
// the node's simulated CPU.
func WithMeter(m *crypto.Meter) NodeOption {
	return func(sn *simNode) { sn.meter = m }
}

// AddNode registers node under id. Init runs via a time-0 Start event.
func (n *Network) AddNode(id smr.NodeID, node smr.Node, opts ...NodeOption) {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %d", id))
	}
	sn := &simNode{
		net:         n,
		id:          id,
		node:        node,
		timers:      make(map[smr.TimerID]*Timer),
		signLanes:   make([]time.Duration, laneCount(n.cfg.SignLanes)),
		verifyLanes: make([]time.Duration, laneCount(n.cfg.VerifyLanes)),
	}
	for _, o := range opts {
		o(sn)
	}
	n.nodes[id] = sn
	node.Init(sn)
	sn.enqueue(smr.Start{})
}

// ReplaceNode swaps the implementation behind id (used to model a
// crashed replica recovering with empty volatile state, or to wrap a
// replica with a Byzantine mutator mid-run). The replacement is
// initialized and started immediately.
func (n *Network) ReplaceNode(id smr.NodeID, node smr.Node) {
	sn, ok := n.nodes[id]
	if !ok {
		panic(fmt.Sprintf("netsim: replace of unknown node %d", id))
	}
	sn.node = node
	sn.queue = nil
	sn.gen++ // orphan the old incarnation's in-flight deferred work
	sn.deferred = sn.deferred[:0]
	// The replacement gets idle crypto and disk units: the orphaned
	// jobs' modeled backlog died with the old incarnation.
	sn.resetUnits()
	for _, t := range sn.timers {
		t.Cancel()
	}
	sn.timers = make(map[smr.TimerID]*Timer)
	node.Init(sn)
	sn.enqueue(smr.Start{})
}

// Restart models a crash-with-disk recovery: the node must currently
// be crashed (Crash), and node is its new incarnation — typically
// rebuilt from the durable state the old one persisted (e.g. an XPaxos
// replica reconstructed from its WAL). Volatile state (queued events,
// timers, in-flight deferred work) is gone, exactly as with
// ReplaceNode; the difference is purely in what the caller passes in.
// The restarted node processes a fresh Start event.
func (n *Network) Restart(id smr.NodeID, node smr.Node) {
	sn, ok := n.nodes[id]
	if !ok {
		panic(fmt.Sprintf("netsim: restart of unknown node %d", id))
	}
	if !sn.crashed {
		panic(fmt.Sprintf("netsim: restart of node %d that is not crashed", id))
	}
	sn.crashed = false
	n.ReplaceNode(id, node)
}

// Node returns the smr.Node registered under id.
func (n *Network) Node(id smr.NodeID) smr.Node { return n.nodes[id].node }

// Stats returns a copy of the node's counters.
func (n *Network) Stats(id smr.NodeID) NodeStats {
	sn := n.nodes[id]
	st := sn.stats
	if sn.meter != nil {
		st.Crypto = sn.meter.Total()
	}
	return st
}

// MessageCounts returns sent-message counts by message type.
func (n *Network) MessageCounts() map[string]uint64 {
	out := make(map[string]uint64, len(n.msgTypeCount))
	for k, v := range n.msgTypeCount {
		out[k] = v
	}
	return out
}

// MessageBytes returns sent bytes by message type.
func (n *Network) MessageBytes() map[string]uint64 {
	out := make(map[string]uint64, len(n.msgTypeBytes))
	for k, v := range n.msgTypeBytes {
		out[k] = v
	}
	return out
}

// Crash stops a node: it ceases processing and all in-flight traffic
// to and from it is dropped until Recover. Deferred crypto in flight at
// the crash is volatile and dies with the node.
func (n *Network) Crash(id smr.NodeID) {
	sn := n.nodes[id]
	sn.crashed = true
	sn.gen++
}

// Recover restarts a crashed node in place, with whatever state the
// node implementation retained. To model loss of volatile state,
// follow with ReplaceNode.
func (n *Network) Recover(id smr.NodeID) {
	sn := n.nodes[id]
	if !sn.crashed {
		return
	}
	sn.crashed = false
	// The crash orphaned all deferred work (gen bump), so the recovered
	// node's crypto and disk units start idle.
	sn.resetUnits()
	sn.enqueue(smr.Start{})
}

// Crashed reports whether the node is currently crashed.
func (n *Network) Crashed(id smr.NodeID) bool { return n.nodes[id].crashed }

// CutLink drops all future traffic in both directions between a and b.
func (n *Network) CutLink(a, b smr.NodeID) {
	n.downLinks[[2]smr.NodeID{a, b}] = true
	n.downLinks[[2]smr.NodeID{b, a}] = true
}

// HealLink restores a previously cut link.
func (n *Network) HealLink(a, b smr.NodeID) {
	delete(n.downLinks, [2]smr.NodeID{a, b})
	delete(n.downLinks, [2]smr.NodeID{b, a})
}

// LinkUp reports whether traffic currently flows from a to b.
func (n *Network) LinkUp(a, b smr.NodeID) bool { return !n.downLinks[[2]smr.NodeID{a, b}] }

// Partition cuts every link between the given group and all other
// registered nodes (in both directions), leaving intra-group links up.
func (n *Network) Partition(group ...smr.NodeID) {
	in := make(map[smr.NodeID]bool, len(group))
	for _, id := range group {
		in[id] = true
	}
	for id := range n.nodes {
		if in[id] {
			continue
		}
		for _, g := range group {
			n.CutLink(id, g)
		}
	}
}

// HealAll restores every cut link.
func (n *Network) HealAll() { n.downLinks = make(map[[2]smr.NodeID]bool) }

// SetExtraDelay adds d of one-way latency to every future message from
// a to b (on top of the configured latency model). Zero removes the
// extra delay. Keepalive probes between the pair pay it too, so a
// sufficiently lagged replica is declared down by the health monitors
// even though its messages still (eventually) arrive — a slow machine,
// not a dead one.
func (n *Network) SetExtraDelay(a, b smr.NodeID, d time.Duration) {
	if d <= 0 {
		delete(n.extraDelay, [2]smr.NodeID{a, b})
		return
	}
	n.extraDelay[[2]smr.NodeID{a, b}] = d
}

// Lag applies SetExtraDelay in both directions between a and b.
func (n *Network) Lag(a, b smr.NodeID, d time.Duration) {
	n.SetExtraDelay(a, b, d)
	n.SetExtraDelay(b, a, d)
}

// ClearExtraDelays removes every extra delay installed by
// SetExtraDelay/Lag.
func (n *Network) ClearExtraDelays() { n.extraDelay = make(map[[2]smr.NodeID]time.Duration) }

// oneWay samples the modeled propagation delay from a to b, including
// any extra delay installed on the directed link.
func (n *Network) oneWay(a, b smr.NodeID) time.Duration {
	return n.cfg.Latency.OneWay(n.Rand(), a, b) + n.extraDelay[[2]smr.NodeID{a, b}]
}

// Nodes returns every registered node ID in ascending order (replicas
// first, then clients — the flat ID space is ordered). Campaign-style
// experiments iterate it instead of the internal map so runs stay
// deterministic.
func (n *Network) Nodes() []smr.NodeID {
	out := make([]smr.NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------------
// Connection health monitoring (the simulator's model of the TCP
// transport's keepalive probes)
// ---------------------------------------------------------------------------

// linkHealth is one directed monitor's state: a watches b. Pong
// arrivals record observations (lastOK, rtt, the RTT estimate); the
// probe tick is the sole up/down decider, mirroring the live
// transport's split between pongLoop and probeLoop.
type linkHealth struct {
	lastOK time.Duration
	rtt    time.Duration
	up     bool
	est    smr.RTTEstimator
}

// probeReachable reports whether a probe launched by a toward b can
// complete its round trip: both ends alive, link up both ways.
func (n *Network) probeReachable(a, b smr.NodeID) bool {
	an, bn := n.nodes[a], n.nodes[b]
	return an != nil && bn != nil && !an.crashed && !bn.crashed &&
		n.LinkUp(a, b) && n.LinkUp(b, a)
}

// StartHealthMonitors begins keepalive modeling among the given nodes
// (typically the replicas; clients are not probed by the live
// transport either). Every ProbeInterval, each ordered pair (a, b)
// launches a "probe": if neither end is crashed and the link delivers
// in both directions, a pong lands one modeled round trip later and
// feeds the pair's RTT estimator. A peer silent past its deadline —
// the configured ProbeTimeout stretched per-link by the estimator,
// never shrunk below it — delivers smr.PeerDown{Peer: b} into a's
// event queue; the first pong afterwards delivers smr.PeerUp at the
// next tick. Deterministic: probes and pong flights are scheduled on
// the virtual clock, so partial-partition scenarios replay
// identically under a fixed seed. Panics if Config.ProbeInterval is
// zero or monitors were already started.
func (n *Network) StartHealthMonitors(ids ...smr.NodeID) {
	if n.cfg.ProbeInterval <= 0 {
		panic("netsim: StartHealthMonitors without Config.ProbeInterval")
	}
	if n.health != nil {
		panic("netsim: health monitors already started")
	}
	if n.cfg.ProbeTimeout <= 0 {
		n.cfg.ProbeTimeout = 3 * n.cfg.ProbeInterval
	}
	n.health = make(map[[2]smr.NodeID]*linkHealth)
	now := n.Now()
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			// Optimistic start, like the transport: a peer is presumed
			// up until it stays silent past the timeout.
			pair := [2]smr.NodeID{a, b}
			n.health[pair] = &linkHealth{lastOK: now, up: true}
			n.healthPairs = append(n.healthPairs, pair)
		}
	}
	var tick func()
	tick = func() {
		n.After(n.cfg.ProbeInterval, tick)
		for _, pair := range n.healthPairs {
			st := n.health[pair]
			a, b := pair[0], pair[1]
			now := n.Now()
			// Judge on what past pongs established before launching this
			// tick's probe; its pong cannot land before the next tick.
			deadline := st.est.Deadline(n.cfg.ProbeInterval, n.cfg.ProbeTimeout)
			an := n.nodes[a]
			alive := an != nil && !an.crashed
			silent := now - st.lastOK
			switch {
			case st.up && silent > deadline:
				st.up = false
				if alive {
					an.enqueue(smr.PeerDown{Peer: b, LastSeen: silent})
				}
			case !st.up && silent <= deadline:
				st.up = true
				if alive {
					an.enqueue(smr.PeerUp{Peer: b, RTT: st.rtt})
				}
			}
			if !n.probeReachable(a, b) {
				continue
			}
			rtt := n.oneWay(a, b) + n.oneWay(b, a)
			n.After(rtt, func() {
				// Dropped if either end died or the link was cut while
				// the probe was in flight.
				if !n.probeReachable(a, b) {
					return
				}
				st.lastOK = n.Now()
				st.rtt = rtt
				st.est.Observe(rtt)
			})
		}
	}
	n.After(n.cfg.ProbeInterval, tick)
}

// deliver is called when a message physically arrives at dst.
func (n *Network) deliver(from, to smr.NodeID, m smr.Message) {
	dst, ok := n.nodes[to]
	if !ok || dst.crashed {
		return
	}
	if n.downLinks[[2]smr.NodeID{from, to}] {
		return
	}
	dst.stats.MsgsRecv++
	dst.stats.BytesRecv += uint64(m.WireSize())
	if n.Trace != nil {
		n.Trace(n.Now(), from, to, m)
	}
	dst.enqueue(smr.Recv{From: from, Msg: m})
}

// ---------------------------------------------------------------------------
// simNode: the per-node Env implementation with CPU and egress queues.
// ---------------------------------------------------------------------------

type simNode struct {
	net  *Network
	id   smr.NodeID
	node smr.Node

	meter *crypto.Meter

	crashed bool
	// gen distinguishes node incarnations: ReplaceNode bumps it so
	// deferred completions submitted by the old incarnation are
	// discarded instead of reanimating it.
	gen uint64

	// CPU queue.
	queue      []smr.Event
	processing bool
	inStep     bool
	cpuFreeAt  time.Duration

	// stepWindow accumulates the crypto metered by the Step currently
	// executing, excluding work the Step handed to Defer.
	stepWindow crypto.Counts

	// Deferred crypto from the Step currently executing, flushed to the
	// async units when the Step's own processing completes.
	deferred []deferredJob
	// signLanes/verifyLanes model the node's two off-loop crypto
	// units: signing runs on its own goroutine in the live runtime
	// while verification fans out through the worker pool, so the two
	// overlap each other and the event loop. Each lane holds the time
	// it is next free; a job takes the earliest-free lane of its unit
	// (Config.SignLanes/VerifyLanes size them; one lane fully
	// serializes the unit, however parallel each job is inside).
	signLanes   []time.Duration
	verifyLanes []time.Duration
	// diskFreeAt models the node's durable-storage unit: deferred jobs
	// with a durable kind (smr.IsDurableKind) serialize here at
	// Config.FsyncCost each, so group commit's fsync latency overlaps
	// the loop and the crypto units in virtual time.
	diskFreeAt time.Duration

	// Egress serialization.
	egressFreeAt time.Duration

	// Deferred sends from the Step currently executing.
	outbox []outMsg

	timers  map[smr.TimerID]*Timer
	timerID smr.TimerID

	stats NodeStats
}

// deferredJob is one Env.Defer submission: the work already ran (the
// simulation has no real concurrency), window is what it metered, and
// apply is delivered as an smr.Async event when the modeled crypto
// unit finishes it.
type deferredJob struct {
	kind   string
	apply  func()
	window crypto.Counts
}

type outMsg struct {
	to smr.NodeID
	m  smr.Message
}

// laneCount normalizes a Config lane setting: zero (unset) means one
// lane, the fully-serialized unit.
func laneCount(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// freestLane returns the lane that frees up earliest; ties go to the
// lowest index so scheduling is deterministic.
func freestLane(lanes []time.Duration) *time.Duration {
	li := 0
	for i := 1; i < len(lanes); i++ {
		if lanes[i] < lanes[li] {
			li = i
		}
	}
	return &lanes[li]
}

// resetUnits idles the node's modeled crypto lanes and disk unit.
func (sn *simNode) resetUnits() {
	for i := range sn.signLanes {
		sn.signLanes[i] = 0
	}
	for i := range sn.verifyLanes {
		sn.verifyLanes[i] = 0
	}
	sn.diskFreeAt = 0
}

func (sn *simNode) ID() smr.NodeID     { return sn.id }
func (sn *simNode) Now() time.Duration { return sn.net.Now() }

func (sn *simNode) Send(to smr.NodeID, m smr.Message) {
	if sn.inStep {
		// Inside Step: the message leaves when processing completes.
		sn.outbox = append(sn.outbox, outMsg{to: to, m: m})
		return
	}
	// Outside Step (experiment scripts, fault injectors): send now.
	sn.transmit(sn.net.Now(), to, m)
}

func (sn *simNode) SetTimer(d time.Duration, kind string) smr.TimerID {
	sn.timerID++
	id := sn.timerID
	t := sn.net.After(d, func() {
		delete(sn.timers, id)
		if sn.crashed {
			return
		}
		sn.enqueue(smr.TimerFired{ID: id, Kind: kind})
	})
	sn.timers[id] = t
	return id
}

func (sn *simNode) CancelTimer(id smr.TimerID) {
	if t, ok := sn.timers[id]; ok {
		t.Cancel()
		delete(sn.timers, id)
	}
}

// Defer implements smr.Env. The work function executes immediately —
// the simulation is single-threaded, and the protocol needs its results
// captured — but the time it metered is charged to the node's off-loop
// sign or verify unit rather than the Step, and the Async completion is
// scheduled for when that unit finishes the job. Crypto latency thus
// overlaps the event loop (and the other unit) in virtual time exactly
// as the live runtime overlaps it in wall-clock time.
func (sn *simNode) Defer(kind string, work func(), apply func()) {
	if !sn.inStep {
		// Experiment scripts and fault injectors run outside Step; give
		// them synchronous semantics.
		work()
		apply()
		return
	}
	if sn.meter != nil {
		// Ops metered so far belong to the Step, not to this job.
		sn.stepWindow.Add(sn.meter.TakeWindow())
	}
	work()
	var w crypto.Counts
	if sn.meter != nil {
		w = sn.meter.TakeWindow()
	}
	sn.deferred = append(sn.deferred, deferredJob{kind: kind, apply: apply, window: w})
}

// enqueue adds an event to the CPU queue and kicks processing.
func (sn *simNode) enqueue(ev smr.Event) {
	sn.queue = append(sn.queue, ev)
	if !sn.processing {
		sn.processing = true
		start := sn.net.Now()
		if sn.cpuFreeAt > start {
			start = sn.cpuFreeAt
		}
		sn.net.At(start, sn.processNext)
	}
}

// processNext executes the head of the CPU queue, charges its cost,
// and flushes its sends at completion time.
func (sn *simNode) processNext() {
	if sn.crashed || len(sn.queue) == 0 {
		sn.processing = false
		return
	}
	ev := sn.queue[0]
	sn.queue = sn.queue[1:]

	if sn.meter != nil {
		sn.meter.TakeWindow() // discard anything stale
	}
	sn.stepWindow = crypto.Counts{}
	sn.outbox = sn.outbox[:0]
	sn.deferred = sn.deferred[:0]
	sn.inStep = true
	sn.node.Step(ev)
	sn.inStep = false

	cost := sn.net.cfg.CostModel.DispatchCost
	if sn.meter != nil {
		sn.stepWindow.Add(sn.meter.TakeWindow())
	}
	cost += sn.stepWindow.Cost(sn.net.cfg.CostModel)
	now := sn.net.Now()
	done := now + cost
	sn.stats.CPUBusy += cost
	sn.cpuFreeAt = done

	// Deferred crypto starts once the submitting Step completes, runs
	// on the sign or verify unit (each FIFO, both concurrent with the
	// event loop and each other), and re-enters the CPU queue as an
	// smr.Async event when its unit finishes it.
	for i := range sn.deferred {
		dj := sn.deferred[i]
		work := dj.window.Cost(sn.net.cfg.CostModel)
		elapsed := dj.window.Elapsed(sn.net.cfg.CostModel)
		var unit *time.Duration
		switch {
		case smr.IsDurableKind(dj.kind):
			// Disk job: the time on the unit is the modeled fsync, not
			// CPU (any crypto it metered still costs CPU below).
			unit = &sn.diskFreeAt
			elapsed += sn.net.cfg.FsyncCost
		case dj.window.Signs > 0:
			unit = freestLane(sn.signLanes)
		default:
			unit = freestLane(sn.verifyLanes)
		}
		start := done
		if *unit > start {
			start = *unit
		}
		finish := start + elapsed
		*unit = finish
		sn.stats.CPUBusy += work
		sn.stats.AsyncBusy += work
		sn.stats.AsyncJobs++
		gen := sn.gen
		apply := dj.apply
		kind := dj.kind
		sn.net.At(finish, func() {
			if sn.crashed || sn.gen != gen {
				return // the submitting incarnation is gone
			}
			sn.enqueue(smr.Async{Kind: kind, Apply: apply})
		})
	}
	sn.deferred = sn.deferred[:0]

	// Outgoing messages leave once processing completes, then
	// serialize on the egress link.
	for _, om := range sn.outbox {
		sn.transmit(done, om.to, om.m)
	}
	sn.outbox = sn.outbox[:0]

	if len(sn.queue) > 0 {
		sn.net.At(done, sn.processNext)
	} else {
		sn.processing = false
		// A new event arriving before `done` must still wait for the
		// CPU; enqueue handles that via cpuFreeAt.
	}
}

// transmit models egress serialization plus propagation.
func (sn *simNode) transmit(ready time.Duration, to smr.NodeID, m smr.Message) {
	size := m.WireSize()
	sn.stats.MsgsSent++
	sn.stats.BytesSent += uint64(size)
	sn.net.msgTypeCount[m.Type()]++
	sn.net.msgTypeBytes[m.Type()] += uint64(size)

	txStart := ready
	if sn.egressFreeAt > txStart {
		txStart = sn.egressFreeAt
	}
	txEnd := txStart
	if rate := sn.net.cfg.EgressBytesPerSec; rate > 0 {
		txEnd = txStart + time.Duration(float64(size)/rate*float64(time.Second))
	}
	sn.egressFreeAt = txEnd

	if to == sn.id {
		// Loopback: skip the wire entirely.
		sn.net.At(ready, func() { sn.net.deliver(sn.id, sn.id, m) })
		return
	}
	lat := sn.net.oneWay(sn.id, to)
	from := sn.id
	arrive := txEnd + lat
	link := [2]smr.NodeID{from, to}
	if prev := sn.net.linkClock[link]; arrive < prev {
		arrive = prev // FIFO per link: never overtake an earlier message
	}
	sn.net.linkClock[link] = arrive
	sn.net.At(arrive, func() { sn.net.deliver(from, to, m) })
}

var _ smr.Env = (*simNode)(nil)
