package campaign

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/xft-consensus/xft/internal/faults"
	"github.com/xft-consensus/xft/internal/smr"
)

// Fault schedules. Each profile generates a sequence of storm episodes
// over [warmup, Horizon) from the campaign PRNG alone — all randomness
// is drawn at generation time, so the timeline (times, victims, fault
// kinds) is fully determined by the seed before the simulation starts;
// the scheduled closures only act.
//
// Fault budget discipline, straight from the XFT consistency model
// (Section 3): crashes and partitions are benign — the system stays
// consistent under ANY number of them, so crash-storm and
// rolling-partition may impair more than t replicas at once (progress
// stalls, safety must hold). The moment non-crash faults are in play
// the model only promises consistency while non-crash + crashed +
// partitioned ≤ t (outside anarchy), so Byzantine windows cap their
// total victim count at t. Episodes never overlap, which keeps the
// accounting local to each window.

// buildTimeline produces the profile's fault schedule plus the final
// heal-everything action at Horizon.
func (c *campaign) buildTimeline(rng *rand.Rand) *faults.Timeline {
	tl := &faults.Timeline{}
	from, until := warmup, c.cfg.Horizon
	switch c.cfg.Profile {
	case CrashStorm:
		c.genCrashWaves(tl, rng, 0.35, from, until)
	case RollingPartition:
		c.genRollingPartitions(tl, rng, from, until)
	case ByzantineMix:
		c.genByzWindows(tl, rng, from, until)
	case KitchenSink:
		c.genKitchenSink(tl, rng, from, until)
	default:
		panic(fmt.Sprintf("campaign: unknown profile %q", c.cfg.Profile))
	}
	tl.Add(until, "heal-all", c.healEverything)
	return tl
}

// randDur draws a duration uniformly from [lo, hi).
func randDur(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

// genCrashWaves emits waves where every replica independently crashes
// with probability q for the wave's duration. The i.i.d. choice is
// what makes the measured availability comparable to the analytic
// binomial model.
func (c *campaign) genCrashWaves(tl *faults.Timeline, rng *rand.Rand, q float64, from, until time.Duration) {
	t := from
	for {
		dur := randDur(rng, 1500*time.Millisecond, 4*time.Second)
		if t+dur >= until {
			return
		}
		for i := 0; i < c.n; i++ {
			if rng.Float64() >= q {
				continue
			}
			id := smr.NodeID(i)
			at, end := t, t+dur
			tl.Add(at, fmt.Sprintf("crash %d", i), func() { c.doCrash(id) })
			tl.Add(end, fmt.Sprintf("recover %d", i), func() { c.doRecover(id) })
		}
		t += dur + randDur(rng, 800*time.Millisecond, 2500*time.Millisecond)
	}
}

// genRollingPartitions sweeps consecutive replica groups out of the
// network, usually a minority (service keeps running on the rest),
// occasionally a larger slice (service stalls until heal — a pure
// liveness storm that safety must survive).
func (c *campaign) genRollingPartitions(tl *faults.Timeline, rng *rand.Rand, from, until time.Duration) {
	t := from
	start := rng.Intn(c.n)
	for {
		dur := randDur(rng, 1200*time.Millisecond, 3500*time.Millisecond)
		if t+dur >= until {
			return
		}
		size := 1 + rng.Intn(c.t)
		if rng.Float64() < 0.2 && c.n > 2 {
			size = 1 + rng.Intn(c.n-1) // occasionally cut a majority
		}
		group := make([]smr.NodeID, size)
		for k := 0; k < size; k++ {
			group[k] = smr.NodeID((start + k) % c.n)
		}
		at, end := t, t+dur
		tl.Add(at, fmt.Sprintf("partition %v", group), func() { c.doPartition(group) })
		tl.Add(end, fmt.Sprintf("heal %v", group), func() { c.doHealGroup(group) })
		start = (start + size) % c.n
		t += dur + randDur(rng, 600*time.Millisecond, 2*time.Second)
	}
}

// genByzWindows opens non-crash fault windows: some victims turn
// Byzantine at the message layer (mute, selective delivery to a random
// subset, deterministic every-nth drop) or suffer commit-log data loss,
// while others simply crash — with the combined victim count capped at
// t so each window stays outside anarchy.
func (c *campaign) genByzWindows(tl *faults.Timeline, rng *rand.Rand, from, until time.Duration) {
	t := from
	for {
		dur := randDur(rng, 2*time.Second, 5*time.Second)
		if t+dur >= until {
			return
		}
		c.genOneByzWindow(tl, rng, t, dur)
		t += dur + randDur(rng, 700*time.Millisecond, 2500*time.Millisecond)
	}
}

// genOneByzWindow emits a single window at [t, t+dur). The first victim
// is always drawn from the initial active group (IDs 0..t — the view-0
// synchronous group, lexicographically first) and always gets a
// message-layer fault: a window that only hits passive replicas or only
// drops data tests nothing, whereas a misbehaving active stalls commits
// and forces the view change / fault detection machinery to run.
func (c *campaign) genOneByzWindow(tl *faults.Timeline, rng *rand.Rand, t, dur time.Duration) {
	budget := c.t
	lead := rng.Intn(c.t + 1)
	perm := []int{lead}
	for _, x := range rng.Perm(c.n) {
		if x != lead {
			perm = append(perm, x)
		}
	}
	nByz := 1
	if budget > 1 {
		nByz = 1 + rng.Intn(budget/2+1)
	}
	if nByz > budget {
		nByz = budget
	}
	nCrash := 0
	if rest := budget - nByz; rest > 0 {
		nCrash = rng.Intn(rest + 1)
	}
	at, end := t, t+dur
	idx := 0
	for k := 0; k < nByz; k++ {
		i := perm[idx]
		idx++
		id := smr.NodeID(i)
		kind := rng.Intn(4)
		if k == 0 {
			kind = rng.Intn(3) // the lead active victim misbehaves on the wire
		}
		switch kind {
		case 0:
			tl.Add(at, fmt.Sprintf("mute %d", i), func() { c.doFilter(id, faults.Mute(), "mute") })
			tl.Add(end, fmt.Sprintf("unmute %d", i), func() { c.doClearFilter(id) })
		case 1:
			nTargets := 1 + rng.Intn((c.n+1)/2)
			tperm := rng.Perm(c.n)
			var targets []smr.NodeID
			for _, x := range tperm {
				if x != i && len(targets) < nTargets {
					targets = append(targets, smr.NodeID(x))
				}
			}
			tl.Add(at, fmt.Sprintf("selective-drop %d -> %v", i, targets),
				func() { c.doFilter(id, faults.DropTo(targets...), "selective") })
			tl.Add(end, fmt.Sprintf("clear-selective %d", i), func() { c.doClearFilter(id) })
		case 2:
			nth := 2 + rng.Intn(3)
			tl.Add(at, fmt.Sprintf("drop-every-%dth %d", nth, i),
				func() { c.doFilter(id, faults.DropNth(nth), "flaky") })
			tl.Add(end, fmt.Sprintf("clear-flaky %d", i), func() { c.doClearFilter(id) })
		case 3:
			// Data loss is instantaneous: drop the tail of the commit
			// log. The replica keeps serving — fault detection is what
			// should notice during the next view change.
			tl.Add(at, fmt.Sprintf("drop-commit-log %d", i), func() { c.doDropCommitLog(id) })
		}
	}
	for k := 0; k < nCrash; k++ {
		i := perm[idx]
		idx++
		id := smr.NodeID(i)
		tl.Add(at, fmt.Sprintf("crash %d", i), func() { c.doCrash(id) })
		tl.Add(end, fmt.Sprintf("recover %d", i), func() { c.doRecover(id) })
	}
}

// genKitchenSink interleaves every storm kind, one episode at a time:
// crash waves, partitions, Byzantine windows, lag storms (slow machine,
// not dead — keepalives miss their deadline but messages arrive) and
// flaky-link pulse trains.
func (c *campaign) genKitchenSink(tl *faults.Timeline, rng *rand.Rand, from, until time.Duration) {
	t := from
	for {
		dur := randDur(rng, 1500*time.Millisecond, 4*time.Second)
		if t+dur >= until {
			return
		}
		at, end := t, t+dur
		switch rng.Intn(5) {
		case 0: // one crash wave
			for i := 0; i < c.n; i++ {
				if rng.Float64() >= 0.3 {
					continue
				}
				id := smr.NodeID(i)
				tl.Add(at, fmt.Sprintf("crash %d", i), func() { c.doCrash(id) })
				tl.Add(end, fmt.Sprintf("recover %d", i), func() { c.doRecover(id) })
			}
		case 1: // one partition episode
			size := 1 + rng.Intn(c.t)
			start := rng.Intn(c.n)
			group := make([]smr.NodeID, size)
			for k := 0; k < size; k++ {
				group[k] = smr.NodeID((start + k) % c.n)
			}
			tl.Add(at, fmt.Sprintf("partition %v", group), func() { c.doPartition(group) })
			tl.Add(end, fmt.Sprintf("heal %v", group), func() { c.doHealGroup(group) })
		case 2: // one Byzantine window
			c.genOneByzWindow(tl, rng, t, dur)
		case 3: // lag storm: one replica's links slow far past the probe deadline
			i := rng.Intn(c.n)
			id := smr.NodeID(i)
			lag := randDur(rng, 300*time.Millisecond, time.Second)
			tl.Add(at, fmt.Sprintf("lag %d +%s", i, lag), func() { c.doLag(id, lag) })
			tl.Add(end, fmt.Sprintf("clear-lag %d", i), func() { c.doClearLag(id) })
		case 4: // flaky link: short cut pulses on one replica pair
			a := rng.Intn(c.n)
			b := (a + 1 + rng.Intn(c.n-1)) % c.n
			ida, idb := smr.NodeID(a), smr.NodeID(b)
			pulses := 2 + rng.Intn(3)
			pt := t
			for p := 0; p < pulses && pt < end; p++ {
				plen := randDur(rng, 100*time.Millisecond, 400*time.Millisecond)
				cutAt, healAt := pt, pt+plen
				if healAt > end {
					healAt = end
				}
				tl.Add(cutAt, fmt.Sprintf("cut-link %d-%d", a, b), func() { c.net.CutLink(ida, idb) })
				tl.Add(healAt, fmt.Sprintf("heal-link %d-%d", a, b), func() { c.net.HealLink(ida, idb) })
				pt = healAt + randDur(rng, 150*time.Millisecond, 500*time.Millisecond)
			}
		}
		t += dur + randDur(rng, 700*time.Millisecond, 2200*time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Fault actuators: applied at fire time; they keep the impairment set
// in sync for the availability sampler.
// ---------------------------------------------------------------------------

func (c *campaign) doCrash(id smr.NodeID) {
	if c.net.Crashed(id) {
		return
	}
	c.net.Crash(id)
	c.impaired[id] = "crash"
}

func (c *campaign) doRecover(id smr.NodeID) {
	if !c.net.Crashed(id) {
		return
	}
	c.net.Recover(id)
	delete(c.impaired, id)
}

func (c *campaign) doFilter(id smr.NodeID, f faults.SendFilter, reason string) {
	c.filters[int(id)].set(f)
	c.impaired[id] = reason
}

func (c *campaign) doClearFilter(id smr.NodeID) {
	c.filters[int(id)].clear()
	delete(c.impaired, id)
}

func (c *campaign) doPartition(group []smr.NodeID) {
	c.net.Partition(group...)
	for _, id := range group {
		c.impaired[id] = "partition"
	}
}

// doHealGroup heals exactly the links a partition of group cut: every
// link between a group member and any other registered node.
func (c *campaign) doHealGroup(group []smr.NodeID) {
	in := make(map[smr.NodeID]bool, len(group))
	for _, id := range group {
		in[id] = true
	}
	for _, other := range c.net.Nodes() {
		if in[other] {
			continue
		}
		for _, id := range group {
			c.net.HealLink(id, other)
		}
	}
	for _, id := range group {
		delete(c.impaired, id)
	}
}

func (c *campaign) doLag(id smr.NodeID, d time.Duration) {
	for i := 0; i < c.n; i++ {
		if smr.NodeID(i) != id {
			c.net.Lag(id, smr.NodeID(i), d)
		}
	}
	c.impaired[id] = "lag"
}

func (c *campaign) doClearLag(id smr.NodeID) {
	for i := 0; i < c.n; i++ {
		if smr.NodeID(i) != id {
			c.net.Lag(id, smr.NodeID(i), 0)
		}
	}
	delete(c.impaired, id)
}

// doDropCommitLog deletes the victim machine's recent commit-log tail
// — the Section 4.4 data-loss fault. The store is untouched (those
// entries already executed), so this must never corrupt safety; it
// exists to exercise view-change state transfer and fault detection.
func (c *campaign) doDropCommitLog(id smr.NodeID) {
	r := c.replicas[int(id)]
	ex := r.Executed()
	if ex == 0 {
		return
	}
	from := smr.SeqNum(1)
	if ex > 8 {
		from = ex - 8
	}
	r.InjectDropCommitLog(from, ex)
}

// healEverything is the Horizon action: recover every crashed replica,
// restore every link, clear every lag and message filter. (A forked
// application stays forked — corruption is not a network condition.)
func (c *campaign) healEverything() {
	for i := 0; i < c.n; i++ {
		id := smr.NodeID(i)
		if c.net.Crashed(id) {
			c.net.Recover(id)
		}
		c.filters[i].clear()
	}
	c.net.HealAll()
	c.net.ClearExtraDelays()
	c.impaired = make(map[smr.NodeID]string)
}
