package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
)

// sampled is what the tracer polls while a window is open.
type sampled struct {
	queueDepthMax   int
	intakeQueuedMax int
	goroutinesMax   int
	rtt             callStats
}

// cumulative is a reading of the counters that only ever grow; the
// tracer takes one at each end of a window and keeps the growth.
type cumulative struct {
	shed, drops    uint64 // intake sheds, send-queue drops
	mallocs, bytes uint64
	gcCPU          float64 // seconds
	cpu            time.Duration
}

func (a *cumulative) addGrowth(from, to cumulative) {
	a.shed += to.shed - from.shed
	a.drops += to.drops - from.drops
	a.mallocs += to.mallocs - from.mallocs
	a.bytes += to.bytes - from.bytes
	a.gcCPU += to.gcCPU - from.gcCPU
	a.cpu += to.cpu - from.cpu
}

// roundTimes splits one crash round's outage into its stages.
type roundTimes struct {
	detectMS, viewChangeMS, redirectMS float64
}

// totals are counters read from stopped nodes.
type totals struct {
	retransmits, rotations, wedged uint64
	walDropped                     uint64
	stateBytes                     int
}

func readCumulative(c *cluster) cumulative {
	var cu cumulative
	for _, h := range c.hosts() {
		st := h.node.Stats()
		if st.Intake != nil {
			cu.shed += st.Intake.Shed
		}
		for _, p := range st.Peers {
			cu.drops += p.Drops
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cu.mallocs, cu.bytes = ms.Mallocs, ms.TotalAlloc
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	if metrics.Read(gc); gc[0].Value.Kind() == metrics.KindFloat64 {
		cu.gcCPU = gc[0].Value.Float64()
	}
	cu.cpu = cpuTime()
	return cu
}

// watch opens a measured window on cluster c — counters count and
// spans are kept from here on — and samples, every 10 ms until
// unwatch, what only polling can see: send-queue depths, the intake
// queue, probe round trips, the goroutine count. Nil-safe, like
// unwatch and finish, so an untraced pass runs the same code.
func (t *tracer) watch(c *cluster) {
	if t == nil {
		return
	}
	t.open = readCumulative(c)
	t.stopProbe, t.probeDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.probeDone)
		s := &t.samples
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stopProbe:
				return
			case <-tick.C:
			}
			s.goroutinesMax = max(s.goroutinesMax, runtime.NumGoroutine())
			for _, h := range c.hosts() {
				st := h.node.Stats()
				if st.Intake != nil {
					s.intakeQueuedMax = max(s.intakeQueuedMax, st.Intake.Queued)
				}
				for id, p := range st.Peers {
					s.queueDepthMax = max(s.queueDepthMax, p.Queued)
					if !h.id.IsClient() && !id.IsClient() && p.Up && p.RTT > 0 {
						s.rtt.add(int64(p.RTT))
					}
				}
			}
		}
	}()
	t.windows++
	t.from = now()
	active.Store(t)
	t.on.Store(true)
}

// unwatch closes the window.
func (t *tracer) unwatch(c *cluster) {
	if t == nil {
		return
	}
	t.on.Store(false)
	active.Store(nil)
	t.seconds += float64(now()-t.from) / 1e9
	close(t.stopProbe)
	<-t.probeDone
	t.grown.addGrowth(t.open, readCumulative(c))
}

// finish reads what may only be read once the cluster has stopped —
// client and replica fields owned by their event loops — and, after a
// kill, splits the outage into detection, view change and redirection.
func (t *tracer) finish(c *cluster, killAt int64) {
	if t == nil {
		return
	}
	var commits []int64 // commit times after the kill
	for _, cl := range c.clients {
		t.totals.retransmits += cl.cl.Retransmits
		t.totals.rotations += cl.cl.HealthRotations
		for i := range cl.reqs {
			r := &cl.reqs[i]
			if r.done == 0 {
				t.totals.wedged++
			}
			if killAt != 0 && r.done > killAt {
				commits = append(commits, r.done)
			}
		}
	}
	for _, r := range c.replicas {
		t.totals.walDropped += r.rep.WALDropped()
		if n := len(r.store.Snapshot()); n > t.totals.stateBytes {
			t.totals.stateBytes = n
		}
	}
	if len(commits) == 0 {
		return
	}
	// Service resumes at the end of the outage as outage_ms defines it.
	// Detection ends at the first survivor told of the dead peer; the
	// view change ends with the last view installed before service
	// resumed; redirection is what is left until it did.
	sort.Slice(commits, func(i, j int) bool { return commits[i] < commits[j] })
	_, resumed := quietest(commits, killAt, commits[len(commits)-1], len(commits)/outageStrays)
	var detected, installed int64
	for _, n := range t.nodes { // all stopped: no lock needed
		if smr.NodeID(n.id).IsClient() {
			continue
		}
		if n.peerDown > killAt && (detected == 0 || n.peerDown < detected) {
			detected = n.peerDown
		}
		for _, at := range n.viewChanges {
			if at > killAt && at < resumed && at > installed {
				installed = at
			}
		}
		n.peerDown, n.viewChanges = 0, nil
	}
	if detected == 0 || installed == 0 {
		return
	}
	t.rounds = append(t.rounds, roundTimes{
		detectMS:     float64(detected-killAt) / 1e6,
		viewChangeMS: float64(installed-detected) / 1e6,
		redirectMS:   float64(resumed-installed) / 1e6,
	})
}

func (n *nodeTrace) observeCommit(c smr.Committed) {
	if !n.t.on.Load() {
		return
	}
	n.mu.Lock()
	n.commits++
	if c.First {
		n.batches++
	}
	n.mu.Unlock()
}

func (n *nodeTrace) observeViewChange(smr.View, time.Duration) {
	if n.t.on.Load() {
		n.t.viewChanges.Add(1)
	}
	n.mu.Lock()
	n.viewChanges = append(n.viewChanges, now())
	n.mu.Unlock()
}

// merged adds up the counts of the nodes of a role ("" = every node)
// and says how many records went in — one per node per round. The
// nodes have stopped, so nothing is counting any more.
func (t *tracer) merged(role string) (counts, int) {
	sum, nodes := newCounts(), 0
	for _, n := range t.nodes {
		if role == "" || n.role == role {
			sum.merge(&n.counts)
			nodes++
		}
	}
	return sum, nodes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// perLayer turns the pass's counters and kept spans into the per-layer
// metrics. ta is the traced windows' tally; untraced is the throughput
// of the untraced windows they are compared with.
func (t *tracer) perLayer(ta *tally, untraced float64, floors map[string]float64, spans []span) map[string]float64 {
	ops := float64(ta.committed)
	all, _ := t.merged("")
	prim, _ := t.merged("primary")
	selfShare := stepSelfShares(spans, t.nodes)
	m := map[string]float64{}
	for k, v := range floors {
		m[k] = v
	}

	// crypto
	verified := float64(all.verify.n + all.batchedSigs)
	m["crypto.signs_per_op"] = ratio(float64(all.sign.n), ops)
	m["crypto.verifies_per_op"] = ratio(verified, ops)
	m["crypto.macs_per_op"] = ratio(float64(all.mac.n), ops)
	m["crypto.batched_share"] = ratio(float64(all.batchedSigs), verified)
	m["crypto.batch_size_mean"] = ratio(float64(all.batchedSigs), float64(all.batch.n))
	m["crypto.sign_us_mean"] = all.sign.meanUS()
	m["crypto.verify_us_per_sig"] = ratio(us(all.verify.ns+all.batch.ns), verified)
	m["crypto.busy_us_per_op"] = ratio(us(all.cryptoNS()), ops)
	for _, role := range []string{"primary", "follower", "client"} {
		c, _ := t.merged(role)
		m["crypto."+role+".busy_us_per_op"] = ratio(us(c.cryptoNS()), ops)
	}

	// xpaxos: the event loop
	for _, role := range []string{"primary", "follower"} {
		c, nodes := t.merged(role)
		// One record per node per round, while seconds sums the rounds.
		m["xpaxos."+role+".step_busy_share"] = ratio(float64(c.stepNS)/1e9*float64(t.windows), t.seconds*float64(nodes))
	}
	m["xpaxos.primary.step_self_us_per_op"] = selfShare["primary"] * ratio(us(prim.stepNS), ops)
	for _, class := range stepClasses {
		m["xpaxos.step_us."+class] = all.step(class).meanUS()
	}
	m["xpaxos.batch_ops_mean"] = ratio(float64(prim.commits), float64(prim.batches))
	var inbox callStats
	for _, kind := range deferKinds {
		ds := all.kind(kind)
		m["xpaxos.defer_wait_us."+kind] = ds.wait.meanUS()
		m["xpaxos.defer_work_us."+kind] = ds.work.meanUS()
		inbox.merge(ds.inbox)
	}
	m["xpaxos.intake_queued_max"] = float64(t.samples.intakeQueuedMax)
	m["xpaxos.intake_shed_per_kop"] = ratio(float64(t.grown.shed)*1e3, ops)
	m["xpaxos.client.retransmits_per_kop"] = ratio(float64(t.totals.retransmits)*1e3, ops)
	m["xpaxos.client.view_rotations"] = float64(t.totals.rotations)
	m["xpaxos.client.wedged_requests"] = float64(t.totals.wedged)
	m["xpaxos.view_changes"] = float64(t.viewChanges.Load())
	var detect, vc, redirect []float64
	for _, r := range t.rounds {
		detect, vc, redirect = append(detect, r.detectMS), append(vc, r.viewChangeMS), append(redirect, r.redirectMS)
	}
	m["xpaxos.detect_ms"], m["xpaxos.viewchange_ms"], m["xpaxos.redirect_ms"] = median(detect), median(vc), median(redirect)
	steady := sorted(ta.steadyMS)
	m["xpaxos.steady_p50_ms"], m["xpaxos.steady_p99_ms"] = percentile(steady, 0.50), percentile(steady, 0.99)

	// smr: the runtime between the loop and everything off it
	m["smr.async_inbox_wait_us"] = inbox.meanUS()
	m["smr.submit_wait_us"] = all.submitWait.meanUS()
	m["smr.timers_per_op"] = ratio(float64(all.timers), ops)

	// wire
	w := &t.wire.counts
	m["wire.msgs_per_op"] = ratio(float64(w.encode.n), ops)
	m["wire.bytes_per_op"] = ratio(float64(w.wireBytes), ops)
	m["wire.encode_us_per_op"] = ratio(us(w.encode.ns), ops)
	m["wire.decode_us_per_op"] = ratio(us(w.decode.ns), ops)

	// transport
	m["transport.sends_per_op"] = ratio(float64(all.send.n), ops)
	m["transport.send_call_us_mean"] = all.send.meanUS()
	m["transport.queue_depth_max"] = float64(t.samples.queueDepthMax)
	m["transport.drops"] = float64(t.grown.drops)
	m["transport.rtt_ms"] = t.samples.rtt.meanUS() / 1e3

	// wal
	syncMS := sorted(all.walSyncMS)
	m["wal.appends_per_op"] = ratio(float64(all.walAppend.n), ops)
	m["wal.syncs_per_kop"] = ratio(float64(all.walSync.n)*1e3, ops)
	m["wal.records_per_sync_mean"] = ratio(float64(all.walAppend.n), float64(all.walSync.n))
	m["wal.sync_ms_p50"], m["wal.sync_ms_p99"] = percentile(syncMS, 0.50), percentile(syncMS, 0.99)
	m["wal.append_us_mean"] = all.walAppend.meanUS()
	m["wal.bytes_per_op"] = ratio(float64(all.walBytes), ops)
	m["wal.busy_us_per_op"] = ratio(us(all.walAppend.ns+all.walSync.ns+all.walTruncate.ns), ops)
	m["wal.dropped_records"] = float64(t.totals.walDropped)

	// kv
	m["kv.execute_us_per_op"] = ratio(us(all.exec.ns), ops)
	m["kv.snapshots_per_kop"] = ratio(float64(all.snapshot.n)*1e3, ops)
	m["kv.snapshot_ms_mean"] = all.snapshot.meanUS() / 1e3
	m["kv.state_bytes"] = float64(t.totals.stateBytes)

	// process, generator, and the trace's own account
	g := &t.grown
	m["proc.allocs_per_op"] = ratio(float64(g.mallocs), ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(g.bytes), ops)
	m["proc.gc_cpu_share"] = ratio(g.gcCPU, g.cpu.Seconds())
	m["proc.rss_peak_mb"] = peakRSSMB()
	m["proc.goroutines_max"] = float64(t.samples.goroutinesMax)
	late := sorted(ta.lateMS)
	m["gen.late_p99_ms"], m["gen.late_max_ms"] = percentile(late, 0.99), percentile(late, 1)
	m["gen.failed_share"] = ratio(float64(ta.failed), float64(ta.attempted))
	m["trace.overhead_share"] = 1 - ratio(ratio(ops, ta.seconds), untraced)
	// Busy time is wall time inside a layer's calls. The fsync is left
	// out of the account because it is almost all waiting for the disk;
	// the rest is CPU work, plus — on a box with fewer cores than
	// runnable goroutines — time a preempted call waited for a core,
	// which is why the share can pass 1 at saturation.
	accounted := all.cryptoNS() + all.walAppend.ns + all.exec.ns + all.snapshot.ns + w.encode.ns + w.decode.ns +
		all.send.ns + int64(selfShare[""]*float64(all.stepNS))
	m["trace.accounted_share"] = ratio(float64(accounted), float64(g.cpu))
	return m
}

// stepSelfShares is, over the kept Step spans of each role and of all
// nodes (""), the share of Step time not covered by child spans — the
// crypto, application, send and Defer calls made from inside Step.
func stepSelfShares(spans []span, nodes []*nodeTrace) map[string]float64 {
	self := selfTimes(spans)
	role := map[int]string{}
	for _, n := range nodes {
		role[n.id] = n.role
	}
	selfNS, durNS := map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		if s.Layer != "xpaxos" {
			continue
		}
		for _, r := range []string{"", role[s.Node]} {
			selfNS[r] += self[s.ID]
			durNS[r] += s.End - s.Start
		}
	}
	shares := map[string]float64{}
	for r := range durNS {
		shares[r] = ratio(float64(selfNS[r]), float64(durNS[r]))
	}
	return shares
}
