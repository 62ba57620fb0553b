package xpaxos

import (
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

// Tests for the keepalive-fed proactive suspect path: the runtime's
// PeerDown signal (modeled by netsim's health monitors, produced by
// the TCP transport's prober in deployment) lets an active replica
// suspect a dead or partitioned group member at probe-timeout
// granularity, instead of waiting for a client retransmission to arm
// an Algorithm 4 watch and time out.

// partitionScenario runs the canonical partial-partition experiment:
// a 3-replica cluster commits traffic, then at cutAt the link between
// the two view-0 actives (0 and 1) is cut — a partial partition: both
// replicas stay connected to replica 2 and to the client. It returns
// the virtual time at which the first replica completed a view change
// past view 0, or 0 if none happened before the horizon.
func partitionScenario(t *testing.T, proactive bool) (vcAt time.Duration, c *cluster) {
	t.Helper()
	const (
		reqTimeout = 2 * time.Second
		cutAt      = 500 * time.Millisecond
		horizon    = 12 * time.Second
	)
	opts := clusterOpts{
		t:          1,
		clients:    1,
		latency:    10 * time.Millisecond,
		delta:      100 * time.Millisecond,
		reqTimeout: reqTimeout,
	}
	// The reference arm runs no prober, so no PeerDown ever reaches the
	// replicas and only the retransmission path can act.
	if proactive {
		opts.probeInterval = 50 * time.Millisecond
		opts.probeTimeout = 200 * time.Millisecond
	}
	c = newCluster(t, opts)

	var firstVC time.Duration
	for i := range c.replicas {
		cfg := &c.replicas[i].cfg
		prev := cfg.OnViewChange
		cfg.OnViewChange = func(v smr.View, at time.Duration) {
			if prev != nil {
				prev(v, at)
			}
			if firstVC == 0 {
				firstVC = at
			}
		}
	}

	// A steady closed-loop workload: the client re-invokes on every
	// commit, so a stalled request eventually drives the baseline's
	// retransmission path.
	ops := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		ops = append(ops, kv.PutOp("k", []byte{byte(i)}))
	}
	done := c.invokeSeq(0, ops, nil)

	c.net.At(cutAt, func() { c.net.CutLink(0, 1) })
	c.run(horizon)

	if *done == 0 {
		t.Fatalf("no commits at all (proactive=%v)", proactive)
	}
	if firstVC == 0 {
		t.Fatalf("no view change before the horizon (proactive=%v)", proactive)
	}
	return firstVC - cutAt, c
}

// TestProactiveSuspectBeatsRetransmitBaseline is the acceptance
// criterion: in the same partial-partition scenario, the
// keepalive-fed health signal must drive suspect/view-change
// measurably earlier than the retransmit-timeout-only baseline.
// Everything is virtual-time deterministic, so the comparison is
// exact, not statistical.
func TestProactiveSuspectBeatsRetransmitBaseline(t *testing.T) {
	proactiveDelay, pc := partitionScenario(t, true)
	baselineDelay, bc := partitionScenario(t, false)

	t.Logf("view-change delay after partition: proactive=%v baseline=%v", proactiveDelay, baselineDelay)

	// The proactive path is detection (200ms probe timeout, at most one
	// 50ms probe tick more) plus one view change (the 2Δ = 200ms
	// collection wait and a round of messages); the baseline needs a
	// client retransmission (2s) plus the armed watch to expire
	// (another 2s).
	if want := 200*time.Millisecond + 50*time.Millisecond + 2*foDelta + foRound; proactiveDelay > want {
		t.Errorf("proactive view change took %v, want at most %v (probe timeout + a tick + 2Δ + a round)", proactiveDelay, want)
	}
	if baselineDelay < 2*time.Second {
		t.Errorf("baseline view change took %v — expected the retransmit path (> 2s); is the baseline accidentally health-fed?", baselineDelay)
	}
	if proactiveDelay*3 > baselineDelay {
		t.Errorf("proactive (%v) not measurably earlier than baseline (%v)", proactiveDelay, baselineDelay)
	}

	// Both clusters must stay safe and converge.
	pc.checkLemma1()
	bc.checkLemma1()
}

// TestPeerDownIgnoredWhenIrrelevant: health noise about passive
// replicas, or arriving at passive replicas, must not churn views.
func TestPeerDownIgnoredWhenIrrelevant(t *testing.T) {
	c := newCluster(t, clusterOpts{
		t:             1,
		clients:       1,
		probeInterval: 50 * time.Millisecond,
		probeTimeout:  200 * time.Millisecond,
	})
	ops := [][]byte{kv.PutOp("a", []byte("1")), kv.PutOp("b", []byte("2"))}
	done := c.invokeSeq(0, ops, nil)
	// Cut both actives' links to the passive replica 2: each active
	// gets PeerDown{2}, replica 2 gets two PeerDowns — none of which
	// may trigger a view change (2 is not in the view-0 group; 2 is
	// not active).
	c.net.At(300*time.Millisecond, func() {
		c.net.CutLink(0, 2)
		c.net.CutLink(1, 2)
	})
	c.run(3 * time.Second)
	if *done != len(ops) {
		t.Fatalf("committed %d/%d ops", *done, len(ops))
	}
	for id := 0; id < 3; id++ {
		if v := c.replicas[id].view; v != 0 {
			t.Errorf("replica %d moved to view %d on irrelevant PeerDown", id, v)
		}
	}
	c.checkLemma1()
}

// TestProactiveSuspectPrimaryCrash: the health signal also covers the
// classic crash (not just partitions) — a dead primary is suspected
// by its follower at probe granularity with no client involvement at
// all.
func TestProactiveSuspectPrimaryCrash(t *testing.T) {
	const crashAt = 300 * time.Millisecond
	c := newFailoverCluster(t, clusterOpts{
		t:             1,
		reqTimeout:    time.Hour, // only the health signal can act
		probeInterval: 50 * time.Millisecond,
		probeTimeout:  200 * time.Millisecond,
	})
	c.net.At(crashAt, func() { c.net.Crash(0) })
	c.run(5 * time.Second)
	// View 1's group (0,2) contains the dead primary; the rotation must
	// pass it without waiting and land on (1,2) = view 2: detection,
	// then one view change.
	for _, id := range []smr.NodeID{1, 2} {
		if v := c.replicas[id].view; v != 2 {
			t.Errorf("replica %d in view %d, want 2; health signal did not drive rotation past the dead node", id, v)
		}
		if c.replicas[id].InViewChange() {
			t.Errorf("replica %d stuck mid view change", id)
		}
		want := 200*time.Millisecond + 50*time.Millisecond + 2*foDelta + foRound
		if took := c.installedAt(id, 2) - crashAt; took > want {
			t.Errorf("replica %d installed view 2 %v after the crash, want at most %v (probe timeout + a tick + 2Δ + a round)", id, took, want)
		}
	}
}
