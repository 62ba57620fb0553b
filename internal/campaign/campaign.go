// Package campaign is the adversarial scale-campaign engine: it spins
// up an XPaxos cluster over the deterministic network simulator at
// dozens of replicas and hundreds-to-thousands of open-loop clients,
// drives a randomized long-horizon fault schedule derived from a single
// PRNG seed — crash/recover waves, rolling partitions, flaky links,
// lagged (clock-skew-like) replicas, muted/selective/data-lossy
// Byzantine windows — and checks the XFT safety and liveness claims the
// whole time:
//
//   - no divergent committed prefixes across replicas (checker.go);
//   - per-replica session order and at-most-once execution;
//   - no lost acknowledged writes (KV: the final replicated value is at
//     least the last acked write number; ZK: every acked sequential
//     create exists in the final tree with suffixes in session order);
//   - replica state convergence after the network heals;
//   - eventual progress: after heal + quiesce all client requests
//     drain, and fresh probe requests commit.
//
// Measured availability is cross-checked against the paper's analytic
// model (internal/model, Section 6.2) on the profile whose fault
// process matches the model's independence assumptions. Every run
// produces a compact deterministic event trace; on violation the result
// carries the seed and a one-line repro command, which is what the
// nightly soak uploads as an artifact.
package campaign

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/apps/zk"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/faults"
	"github.com/xft-consensus/xft/internal/model"
	"github.com/xft-consensus/xft/internal/netsim"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// Profile selects a fault-schedule generator (schedule.go).
type Profile string

const (
	// CrashStorm drives waves of independent crash/recover cycles.
	// Crashes are benign faults, so any number at once is safe for
	// consistency — and because victims are chosen i.i.d. per wave, the
	// measured availability is comparable against the analytic
	// AvailabilityXFT model and asserted within Config.AvailTolerance.
	CrashStorm Profile = "crash-storm"
	// RollingPartition sweeps partitions of varying size around the
	// ring, occasionally isolating a majority (progress stalls, safety
	// must hold, service must recover on heal).
	RollingPartition Profile = "rolling-partition"
	// ByzantineMix opens windows of non-crash faults — muted replicas,
	// selective delivery, deterministic message drops, commit-log data
	// loss — mixed with crashes, keeping the total number of
	// simultaneously faulty replicas within t (outside anarchy, where
	// XFT still promises consistency).
	ByzantineMix Profile = "byzantine-mix"
	// KitchenSink interleaves all of the above plus lag storms and
	// flaky links, one storm at a time.
	KitchenSink Profile = "kitchen-sink"
)

// Profiles lists every defined profile in a fixed order.
func Profiles() []Profile {
	return []Profile{CrashStorm, RollingPartition, ByzantineMix, KitchenSink}
}

// ParseProfile validates a profile name.
func ParseProfile(s string) (Profile, error) {
	for _, p := range Profiles() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("campaign: unknown profile %q (have %v)", s, Profiles())
}

// AppKind selects the replicated application under test.
type AppKind string

const (
	// AppKV replicates the key-value store; each client writes
	// monotonically numbered values to a private key.
	AppKV AppKind = "kv"
	// AppZK replicates the ZooKeeper-style store; each client issues
	// sequential creates under a private parent znode.
	AppZK AppKind = "zk"
)

// Config parameterizes one campaign run. Zero fields take
// profile-specific defaults (withDefaults).
type Config struct {
	Profile Profile
	// Seed drives everything: schedule generation, the network
	// simulator and the crypto suite. Same seed, same run.
	Seed int64
	// T is the tolerated fault threshold; the cluster has 2T+1 replicas.
	T int
	// Clients is the number of open-loop clients.
	Clients int
	// ClientWindow caps each client's outstanding requests.
	ClientWindow int
	// IssueInterval is each client's open-loop issue period.
	IssueInterval time.Duration
	// Horizon is the fault-injection phase length (virtual time).
	Horizon time.Duration
	// Quiesce is how long the cluster gets after the final heal to
	// drain every outstanding request before the liveness checks.
	Quiesce time.Duration
	App     AppKind
	// InjectFork silently corrupts one replica's application mid-run
	// (it executes extra poison operations), without registering the
	// replica as faulty anywhere: the safety checker must catch the
	// divergence on its own. This is the checker-checks-itself hook.
	InjectFork bool
	// AvailTolerance bounds |measured − analytic| availability on the
	// crash-storm profile (the only one whose fault process matches the
	// model's independence assumptions). Default 0.25 — the cross-check
	// is a gross-disagreement alarm, not a statistical test.
	AvailTolerance float64
}

// withDefaults fills unset fields per profile.
func (c Config) withDefaults() Config {
	if c.Profile == "" {
		c.Profile = CrashStorm
	}
	type def struct {
		t, clients int
		horizon    time.Duration
		app        AppKind
	}
	d := map[Profile]def{
		CrashStorm:       {t: 2, clients: 200, horizon: 30 * time.Second, app: AppKV},
		RollingPartition: {t: 2, clients: 200, horizon: 30 * time.Second, app: AppKV},
		ByzantineMix:     {t: 6, clients: 1000, horizon: 12 * time.Second, app: AppZK},
		KitchenSink:      {t: 3, clients: 400, horizon: 20 * time.Second, app: AppZK},
	}[c.Profile]
	if c.T == 0 {
		c.T = d.t
	}
	if c.Clients == 0 {
		c.Clients = d.clients
	}
	if c.ClientWindow == 0 {
		c.ClientWindow = 4
	}
	if c.IssueInterval == 0 {
		c.IssueInterval = 500 * time.Millisecond
	}
	if c.Horizon == 0 {
		c.Horizon = d.horizon
	}
	if c.Quiesce == 0 {
		c.Quiesce = 6 * time.Second
	}
	if c.App == "" {
		c.App = d.app
	}
	if c.AvailTolerance == 0 {
		c.AvailTolerance = 0.25
	}
	return c
}

// Repro renders the one-line command that replays this exact run.
func (c Config) Repro() string {
	s := fmt.Sprintf("go run ./cmd/xft-bench campaign -profile %s -seed %d -t %d -clients %d -horizon %s",
		c.Profile, c.Seed, c.T, c.Clients, c.Horizon)
	if c.App != "" {
		s += fmt.Sprintf(" -app %s", c.App)
	}
	if c.InjectFork {
		s += " -inject-fork"
	}
	return s
}

// Violation is one failed invariant.
type Violation struct {
	At     time.Duration
	Kind   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%s %s: %s", v.At, v.Kind, v.Detail)
}

// Result is the outcome of one campaign run.
type Result struct {
	Config     Config
	Violations []Violation
	Trace      *Trace
	// TraceDigest is Trace.Digest() — the determinism fingerprint.
	TraceDigest string
	// Acked counts client-acknowledged requests; Commits counts
	// observer notifications across all replicas.
	Acked       uint64
	Commits     uint64
	Retransmits uint64
	ViewChanges uint64
	// Detections lists fault-detector convictions ("replica 3 convicted
	// 5 kind=dataloss sn=12").
	Detections []string
	// FaultActions counts scheduled fault-timeline actions.
	FaultActions int
	// MeasuredAvail is the fraction of fault-phase samples with at
	// least t+1 unimpaired replicas; AnalyticAvail the model's
	// prediction from the measured per-replica impairment rate.
	// AvailChecked reports whether the pair was asserted.
	MeasuredAvail float64
	AnalyticAvail float64
	AvailChecked  bool
	// Repro is the one-line command replaying this run.
	Repro string
}

// OK reports whether every invariant held.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Campaign timing constants. Everything is scaled down from the
// paper's WAN numbers so long horizons stay cheap in virtual time; the
// ratios (latency ≪ Δ ≪ request timeout) match the deployment rules.
const (
	linkLatency    = 2 * time.Millisecond
	campaignDelta  = 40 * time.Millisecond
	batchTimeout   = 2 * time.Millisecond
	reqTimeout     = 250 * time.Millisecond
	vcTimeout      = 200 * time.Millisecond
	probeInterval  = 50 * time.Millisecond
	probeTimeout   = 150 * time.Millisecond
	checkpointCHK  = 64
	warmup         = 1500 * time.Millisecond
	sampleEvery    = 100 * time.Millisecond
	progressWindow = 5 * time.Second
	maxViolations  = 64
)

// campaign is the per-run state. Replica-side state is indexed by
// machine: machine i hosts replica i.
type campaign struct {
	cfg  Config
	n, t int

	net      *netsim.Network
	suite    crypto.Suite
	replicas []*xpaxos.Replica
	filters  []*dynFilter
	kvStores []*kv.Store
	zkStores []*zk.Store
	corrupt  []bool

	clients  []*xpaxos.Client
	issued   []uint64 // per client: write numbers / create indexes issued
	zkParent []bool   // per client: private parent znode created
	ackedMax []uint64 // kv: highest acked write number per client
	ackedCnt []uint64
	zkAcked  []map[uint64]zkAck // per client: issue index -> ack

	check      *checker
	trace      *Trace
	violations []Violation

	// impaired tracks replicas currently crashed / muted / partitioned
	// / lagged, for availability sampling and schedule bookkeeping.
	impaired    map[smr.NodeID]string
	samples     int
	upSamples   int
	downSamples []int

	ackBuckets  []uint64 // acks per virtual second
	viewChanges uint64
	detections  []string
	retransmits uint64
	faultCount  int
}

type zkAck struct {
	suffix uint64
	path   string
}

// dynFilter is a mutable SendFilter slot: the fault schedule swaps the
// active behavior (mute, selective delivery, drop-every-nth) in and out
// per replica at virtual times.
type dynFilter struct{ f faults.SendFilter }

func (d *dynFilter) set(f faults.SendFilter) { d.f = f }
func (d *dynFilter) clear()                  { d.f = nil }
func (d *dynFilter) Filter(to smr.NodeID, m smr.Message) []faults.Send {
	if d.f == nil {
		return faults.PassThrough(to, m)
	}
	return d.f(to, m)
}

// corruptApp wraps a replica's application; while *on, every Execute
// additionally applies a deterministic poison operation, so the
// replica's state silently diverges while its protocol messages stay
// perfectly well-formed — a non-crash machine fault below the
// protocol's waterline. The safety checker must catch it from state
// comparison alone.
type corruptApp struct {
	inner  smr.Application
	on     *bool
	poison func(k uint64) []byte
	k      uint64
}

func (a *corruptApp) Execute(op []byte) []byte {
	if *a.on {
		a.k++
		a.inner.Execute(a.poison(a.k))
	}
	return a.inner.Execute(op)
}
func (a *corruptApp) Snapshot() []byte          { return a.inner.Snapshot() }
func (a *corruptApp) Restore(snap []byte) error { return a.inner.Restore(snap) }

// Run executes one campaign and returns its result. Deterministic: the
// same Config (including Seed) yields an identical Result, trace and
// digest.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	c := &campaign{
		cfg:      cfg,
		n:        2*cfg.T + 1,
		t:        cfg.T,
		trace:    &Trace{},
		impaired: make(map[smr.NodeID]string),
	}
	c.downSamples = make([]int, c.n)
	c.build()

	rng := rand.New(rand.NewSource(cfg.Seed))
	tl := c.buildTimeline(rng)
	if cfg.InjectFork {
		target := smr.NodeID(c.n - 1)
		tl.Add(cfg.Horizon/2, fmt.Sprintf("inject-fork %d", target), func() {
			c.corrupt[target] = true
		})
	}
	c.faultCount = tl.Len()
	// The digest hashes this header. It keeps the groups=1 field from
	// when one campaign could host several XPaxos groups, so digests
	// recorded before then still compare.
	c.trace.Notef("campaign profile=%s seed=%d n=%d t=%d groups=1 clients=%d window=%d issue=%s horizon=%s quiesce=%s app=%s fork=%v actions=%d",
		cfg.Profile, cfg.Seed, c.n, c.t, cfg.Clients, cfg.ClientWindow, cfg.IssueInterval,
		cfg.Horizon, cfg.Quiesce, cfg.App, cfg.InjectFork, c.faultCount)
	tl.Install(c.net.At, func(a faults.Action) {
		c.trace.Addf(c.net.Now(), "fault %s", a.Name)
	})

	c.startClients()
	c.startSampling()

	c.net.RunUntil(cfg.Horizon + cfg.Quiesce)
	c.checkDrain()
	c.probeProgress()
	c.finalize()

	res := &Result{
		Config:        cfg,
		Violations:    c.violations,
		Trace:         c.trace,
		Acked:         c.totalAcked(),
		Commits:       c.check.commits,
		Retransmits:   c.retransmits,
		ViewChanges:   c.viewChanges,
		Detections:    c.detections,
		FaultActions:  c.faultCount,
		MeasuredAvail: c.measuredAvail(),
		AnalyticAvail: c.analyticAvail(),
		AvailChecked:  cfg.Profile == CrashStorm && c.samples > 0,
		Repro:         cfg.Repro(),
	}
	res.TraceDigest = c.trace.Digest()
	return res
}

// build assembles the cluster: n replicas (fault-filter-wrapped, with
// corruptible applications) and the open-loop clients.
func (c *campaign) build() {
	cfg := c.cfg
	c.suite = crypto.NewSimSuite(cfg.Seed + 1)
	c.net = netsim.New(netsim.Config{
		Latency:       netsim.Uniform{Delay: linkLatency},
		CostModel:     crypto.DefaultCostModel(),
		Seed:          cfg.Seed,
		ProbeInterval: probeInterval,
		ProbeTimeout:  probeTimeout,
	})
	c.corrupt = make([]bool, c.n)
	c.check = newChecker(c.n, cfg.Clients, c.violate)

	intakeCap := 2 * cfg.Clients * cfg.ClientWindow
	if intakeCap < 4096 {
		intakeCap = 4096
	}
	replicaIDs := make([]smr.NodeID, 0, c.n)
	for i := 0; i < c.n; i++ {
		id := smr.NodeID(i)
		replicaIDs = append(replicaIDs, id)
		var app smr.Application
		var poison func(k uint64) []byte
		switch cfg.App {
		case AppKV:
			st := kv.NewStore()
			c.kvStores = append(c.kvStores, st)
			app = st
			poison = func(k uint64) []byte { return kv.SeqPutOp("poison", k) }
		case AppZK:
			st := zk.NewStore()
			c.zkStores = append(c.zkStores, st)
			app = st
			poison = func(uint64) []byte { return zk.CreateOp("/poison", nil, zk.ModeSequential) }
		default:
			panic(fmt.Sprintf("campaign: unknown app kind %q", cfg.App))
		}
		app = &corruptApp{inner: app, on: &c.corrupt[i], poison: poison}

		rcfg := xpaxos.Config{
			N: c.n, T: c.t,
			Suite:              crypto.NewMeter(c.suite),
			Delta:              campaignDelta,
			BatchSize:          10,
			BatchTimeout:       batchTimeout,
			RequestTimeout:     reqTimeout,
			ViewChangeTimeout:  vcTimeout,
			CheckpointInterval: checkpointCHK,
			EnableFD:           true,
			IntakeQueueCap:     intakeCap,
			Observer:           c.check.onCommit,
			OnViewChange: func(v smr.View, at time.Duration) {
				c.viewChanges++
				c.trace.Addf(at, "view-change replica=%d view=%d", i, v)
			},
			OnFaultDetected: func(culprit smr.NodeID, kind string, sn smr.SeqNum) {
				d := fmt.Sprintf("replica %d convicted %d kind=%s sn=%d", i, culprit, kind, sn)
				c.detections = append(c.detections, d)
				c.trace.Addf(c.net.Now(), "fd %s", d)
			},
		}
		r := xpaxos.NewReplica(id, rcfg, app)
		c.replicas = append(c.replicas, r)
		df := &dynFilter{}
		c.filters = append(c.filters, df)
		c.net.AddNode(id, faults.Wrap(r, df.Filter))
	}
	c.net.StartHealthMonitors(replicaIDs...)

	c.issued = make([]uint64, cfg.Clients)
	c.ackedMax = make([]uint64, cfg.Clients)
	c.ackedCnt = make([]uint64, cfg.Clients)
	c.zkParent = make([]bool, cfg.Clients)
	c.zkAcked = make([]map[uint64]zkAck, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		c.zkAcked[i] = make(map[uint64]zkAck)
		ci := i
		cl, err := xpaxos.NewClient(smr.ClientIDBase+smr.NodeID(i), xpaxos.ClientConfig{
			N: c.n, T: c.t,
			Suite:          crypto.NewMeter(c.suite),
			RequestTimeout: reqTimeout,
			Window:         cfg.ClientWindow,
			OnCommit: func(op, rep []byte, _ time.Duration) {
				c.onAck(ci, op, rep)
			},
		})
		if err != nil {
			panic(err)
		}
		c.clients = append(c.clients, cl)
		c.net.AddNode(smr.ClientIDBase+smr.NodeID(i), cl)
	}
}

func clientKey(ci int) string { return fmt.Sprintf("c%04d", ci) }

func clientParent(ci int) string { return fmt.Sprintf("/c%04d", ci) }

// startClients schedules one open-loop pump per client: every
// IssueInterval (phase-staggered across clients) it issues one request
// if the window has room, independent of completions, until Horizon.
func (c *campaign) startClients() {
	interval := c.cfg.IssueInterval
	for i := range c.clients {
		ci := i
		var pump func()
		pump = func() {
			if c.net.Now() >= c.cfg.Horizon {
				return
			}
			cl := c.clients[ci]
			if cl.CanInvoke() {
				c.issueNext(ci)
			}
			c.net.After(interval, pump)
		}
		offset := warmup + time.Duration(int64(interval)*int64(i)/int64(len(c.clients)))
		c.net.At(offset, pump)
	}
}

// issueNext submits client ci's next request.
func (c *campaign) issueNext(ci int) {
	switch c.cfg.App {
	case AppKV:
		c.issued[ci]++
		c.clients[ci].Invoke(kv.SeqPutOp(clientKey(ci), c.issued[ci]))
	case AppZK:
		if !c.zkParent[ci] {
			c.zkParent[ci] = true
			c.clients[ci].Invoke(zk.CreateOp(clientParent(ci), nil, zk.ModePersistent))
			return
		}
		c.issued[ci]++
		data := wire.New(8).U64(c.issued[ci]).Done()
		c.clients[ci].Invoke(zk.CreateOp(clientParent(ci)+"/j", data, zk.ModeSequential))
	}
}

// onAck records one client acknowledgment (the request committed at
// t+1 active replicas and the reply quorum matched).
func (c *campaign) onAck(ci int, op, rep []byte) {
	now := c.net.Now()
	sec := int(now / time.Second)
	for len(c.ackBuckets) <= sec {
		c.ackBuckets = append(c.ackBuckets, 0)
	}
	c.ackBuckets[sec]++
	c.ackedCnt[ci]++

	switch c.cfg.App {
	case AppKV:
		rd := wire.NewReader(op)
		rd.U8()
		rd.Str()
		val, ok := rd.Bytes()
		if !ok {
			return
		}
		if seq, ok := kv.SeqFromValue(val); ok && seq > c.ackedMax[ci] {
			c.ackedMax[ci] = seq
		}
	case AppZK:
		rd := wire.NewReader(op)
		code, _ := rd.U8()
		rd.Str()
		data, _ := rd.Bytes()
		mode, _ := rd.U8()
		if code != zk.OpCreate || zk.CreateMode(mode) != zk.ModeSequential {
			return // the client's parent-create bootstrap
		}
		idx, ok := wire.NewReader(data).U64()
		if !ok {
			return
		}
		path, err := zk.ReplyPath(rep)
		if err != nil {
			c.violate("zk-error-reply", fmt.Sprintf("client %d create #%d acked with error reply", ci, idx))
			return
		}
		suffix, ok := zk.SeqSuffix(path)
		if !ok {
			c.violate("zk-bad-path", fmt.Sprintf("client %d create #%d acked with non-sequential path %q", ci, idx, path))
			return
		}
		c.zkAcked[ci][idx] = zkAck{suffix: suffix, path: path}
	}
}

// startSampling runs the availability sampler over the fault phase.
func (c *campaign) startSampling() {
	var sample func()
	sample = func() {
		if c.net.Now() > c.cfg.Horizon {
			return
		}
		c.samples++
		if c.n-len(c.impaired) >= c.t+1 {
			c.upSamples++
		}
		for i := 0; i < c.n; i++ {
			if _, bad := c.impaired[smr.NodeID(i)]; bad {
				c.downSamples[i]++
			}
		}
		c.net.After(sampleEvery, sample)
	}
	c.net.At(warmup, sample)
}

func (c *campaign) violate(kind, detail string) {
	if len(c.violations) >= maxViolations {
		return
	}
	at := c.net.Now()
	c.violations = append(c.violations, Violation{At: at, Kind: kind, Detail: detail})
	c.trace.Addf(at, "VIOLATION %s: %s", kind, detail)
}

// checkDrain asserts that after heal + quiesce no client still has
// requests in flight.
func (c *campaign) checkDrain() {
	stuck := 0
	worst := 0
	for _, cl := range c.clients {
		if o := cl.Outstanding(); o > 0 {
			stuck++
			if o > worst {
				worst = o
			}
		}
		c.retransmits += cl.Retransmits
	}
	if stuck > 0 {
		c.violate("stuck-requests", fmt.Sprintf(
			"%d clients still have requests outstanding %s after the last fault healed (worst %d)",
			stuck, c.cfg.Quiesce, worst))
	}
}

// probeProgress issues one fresh request from a handful of clients and
// asserts they commit within the progress window: the healed cluster
// must serve new work, not merely drain old work.
func (c *campaign) probeProgress() {
	probes := len(c.clients)
	if probes > 5 {
		probes = 5
	}
	base := make([]uint64, probes)
	launched := make([]bool, probes)
	for p := 0; p < probes; p++ {
		ci := p
		base[p] = c.ackedCnt[ci]
		if !c.clients[ci].CanInvoke() {
			continue // already flagged by checkDrain
		}
		launched[p] = true
		c.net.At(c.net.Now(), func() { c.issueNext(ci) })
	}
	c.net.RunFor(progressWindow)
	for p := 0; p < probes; p++ {
		if launched[p] && c.ackedCnt[p] <= base[p] {
			c.violate("no-progress", fmt.Sprintf(
				"probe request from client %d did not commit within %s of the healed, quiesced cluster", p, progressWindow))
		}
	}
}

// finalize runs the end-of-run checks and writes the trace summary.
func (c *campaign) finalize() {
	// Per-second service throughput (acks), then commit agreement.
	for sec, n := range c.ackBuckets {
		c.trace.Notef("sec=%03d acks=%d", sec, n)
	}
	c.check.finalizeAgreement()

	// Replica convergence and state agreement. Lazy replication plus the
	// quiesce should leave (at least) every active replica at the same
	// execution mark with identical application state; the forked
	// replica is caught here because its poisoned store hashes
	// differently at the same mark.
	var maxEx smr.SeqNum
	for _, r := range c.replicas {
		if ex := r.Executed(); ex > maxEx {
			maxEx = ex
		}
	}
	var holders []int
	for i, r := range c.replicas {
		ex := r.Executed()
		h := sha256.Sum256(c.appSnapshot(i))
		c.trace.Notef("final replica=%d view=%d ex=%d state=%x", i, r.View(), ex, h[:8])
		if ex == maxEx {
			holders = append(holders, i)
		}
	}
	if len(holders) < 2 {
		c.violate("no-convergence", fmt.Sprintf(
			"only %d replica(s) reached the maximum execution mark %d after quiesce", len(holders), maxEx))
	}
	ref := -1
	var refHash [32]byte
	for _, i := range holders {
		h := sha256.Sum256(c.appSnapshot(i))
		if ref < 0 {
			ref, refHash = i, h
		} else if h != refHash {
			c.violate("state-divergence", fmt.Sprintf(
				"replicas %d and %d disagree on application state at execution mark %d (%x vs %x)",
				ref, i, maxEx, refHash[:8], h[:8]))
		}
	}
	if ref >= 0 {
		c.checkAckedDurability(ref)
	}
	c.checkZKSessions()

	// Availability cross-check against the Section 6.2 model.
	measured, analytic := c.measuredAvail(), c.analyticAvail()
	c.trace.Notef("availability measured=%.4f analytic=%.4f samples=%d", measured, analytic, c.samples)
	if c.cfg.Profile == CrashStorm && c.samples > 0 {
		if diff := math.Abs(measured - analytic); diff > c.cfg.AvailTolerance {
			c.violate("availability-model", fmt.Sprintf(
				"measured availability %.4f deviates from the analytic AvailabilityXFT %.4f by %.4f (> %.2f)",
				measured, analytic, diff, c.cfg.AvailTolerance))
		}
	}
	c.trace.Notef("summary acked=%d commits=%d retransmits=%d view-changes=%d detections=%d violations=%d",
		c.totalAcked(), c.check.commits, c.retransmits, c.viewChanges, len(c.detections), len(c.violations))
}

// appSnapshot returns the snapshot of the application on machine i.
func (c *campaign) appSnapshot(i int) []byte {
	switch c.cfg.App {
	case AppKV:
		return c.kvStores[i].Snapshot()
	case AppZK:
		return c.zkStores[i].Snapshot()
	}
	return nil
}

// checkAckedDurability asserts no acked write was lost, against a
// replica holding the maximum execution mark.
func (c *campaign) checkAckedDurability(ref int) {
	reported := 0
	switch c.cfg.App {
	case AppKV:
		st := c.kvStores[ref]
		for ci, want := range c.ackedMax {
			got, ok := st.LastSeq(clientKey(ci))
			if want > 0 && (!ok || got < want) {
				reported++
				if reported <= 5 {
					c.violate("lost-acked-write", fmt.Sprintf(
						"client %d was acked write #%d but replica %d holds #%d", ci, want, ref, got))
				}
			}
			// The stored value must be one the client actually issued:
			// anything beyond the issue counter means the service
			// invented or corrupted a write.
			if ok && got > c.issued[ci] {
				c.violate("impossible-value", fmt.Sprintf(
					"replica %d holds write #%d for client %d, which only issued %d", ref, got, ci, c.issued[ci]))
			}
		}
	case AppZK:
		st := c.zkStores[ref]
		for ci := range c.zkAcked {
			for _, idx := range sortedKeys(c.zkAcked[ci]) {
				ack := c.zkAcked[ci][idx]
				if !st.Exists(ack.path) {
					reported++
					if reported <= 5 {
						c.violate("lost-acked-create", fmt.Sprintf(
							"client %d was acked create %q but it is missing from replica %d's tree", ci, ack.path, ref))
					}
				}
			}
			// At-most-once execution at the service level: each issued
			// create adds exactly one child under the client's private
			// parent, so more children than issues means some create
			// executed twice (e.g. a retransmission that escaped dedupe).
			if n := st.ChildCount(clientParent(ci)); n > int(c.issued[ci]) {
				c.violate("dup-execution", fmt.Sprintf(
					"client %d issued %d creates but its parent has %d children on replica %d",
					ci, c.issued[ci], n, ref))
			}
		}
	}
	if reported > 5 {
		c.violate(c.lostKind(), fmt.Sprintf("...and %d more lost acked operations", reported-5))
	}
}

func (c *campaign) lostKind() string {
	if c.cfg.App == AppKV {
		return "lost-acked-write"
	}
	return "lost-acked-create"
}

// checkZKSessions asserts session semantics per client from the acked
// sequential-create suffixes. Two suffixes under one client's private
// parent can never repeat — a duplicate means one create executed (and
// was acked) twice. The stronger guarantee — suffixes strictly
// increasing in issue order — only holds when the client pipelines one
// op at a time: with a wider window several creates are legitimately in
// flight at once and a view change may commit them out of issue order
// (the replication layer orders commits, not client sessions), so the
// in-order check is gated on ClientWindow == 1.
func (c *campaign) checkZKSessions() {
	if c.cfg.App != AppZK {
		return
	}
	reported := 0
	for ci := range c.zkAcked {
		seen := make(map[uint64]uint64, len(c.zkAcked[ci]))
		var prevIdx, prevSfx uint64
		have := false
		for _, idx := range sortedKeys(c.zkAcked[ci]) {
			sfx := c.zkAcked[ci][idx].suffix
			if firstIdx, dup := seen[sfx]; dup {
				reported++
				if reported <= 5 {
					c.violate("session-dup-suffix", fmt.Sprintf(
						"client %d: creates #%d and #%d were both acked with suffix %d",
						ci, firstIdx, idx, sfx))
				}
			}
			seen[sfx] = idx
			if c.cfg.ClientWindow == 1 && have && sfx <= prevSfx {
				reported++
				if reported <= 5 {
					c.violate("session-suffix-order", fmt.Sprintf(
						"client %d: create #%d got suffix %d but earlier create #%d got %d",
						ci, idx, sfx, prevIdx, prevSfx))
				}
			}
			prevIdx, prevSfx, have = idx, sfx, true
		}
	}
	if reported > 5 {
		c.violate("session-suffix-order", fmt.Sprintf("...and %d more session violations", reported-5))
	}
}

func sortedKeys(m map[uint64]zkAck) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; maps are small
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (c *campaign) totalAcked() uint64 {
	var n uint64
	for _, a := range c.ackedCnt {
		n += a
	}
	return n
}

func (c *campaign) measuredAvail() float64 {
	if c.samples == 0 {
		return 0
	}
	return float64(c.upSamples) / float64(c.samples)
}

// analyticAvail feeds the measured mean per-replica impairment rate
// into the paper's AvailabilityXFT (Section 6.2): the probability that
// at least t+1 of 2t+1 independently-available replicas are up. On the
// crash-storm profile the schedule picks victims i.i.d., so measured
// and analytic must agree within tolerance; correlated profiles
// (partitions) report the pair without asserting.
func (c *campaign) analyticAvail() float64 {
	if c.samples == 0 {
		return 0
	}
	var down int
	for _, d := range c.downSamples {
		down += d
	}
	pAvail := 1 - float64(down)/float64(c.samples*c.n)
	av := model.AvailabilityXFT(c.t, model.Params{
		PBenign:    big.NewFloat(1),
		PCorrect:   big.NewFloat(pAvail),
		PSynchrony: big.NewFloat(1),
	})
	f, _ := av.Float64()
	return f
}
