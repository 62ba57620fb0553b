package xpaxos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

func fdCluster(t *testing.T, clients int) *cluster {
	return newCluster(t, clusterOpts{
		t: 1, clients: clients, reqTimeout: 300 * time.Millisecond,
		cfgMod: func(id smr.NodeID, cfg *Config) { cfg.EnableFD = true },
	})
}

func (c *cluster) hasDetection(at smr.NodeID, kind string, culprit smr.NodeID) bool {
	want := fmt.Sprintf("%s:%d", kind, culprit)
	for _, d := range c.detections[at] {
		if d == want {
			return true
		}
	}
	return false
}

func (c *cluster) anyDetection() string {
	for id, ds := range c.detections {
		if len(ds) > 0 {
			return fmt.Sprintf("replica %d detected %s", id, strings.Join(ds, ","))
		}
	}
	return ""
}

func TestFDCommonCaseWorksWithFDEnabled(t *testing.T) {
	c := fdCluster(t, 1)
	ops := make([][]byte, 6)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(3 * time.Second)
	if *done != len(ops) {
		t.Fatalf("commits %d/%d with FD enabled", *done, len(ops))
	}
	if d := c.anyDetection(); d != "" {
		t.Fatalf("spurious detection in fault-free run: %s", d)
	}
}

// TestFDDetectsDataLoss is the core FD property (Theorem 5, strong
// completeness): a replica that loses its logs outside anarchy in a
// way that could cause inconsistency in anarchy is detected during the
// next view change.
func TestFDDetectsDataLoss(t *testing.T) {
	c := fdCluster(t, 1)
	ops := make([][]byte, 5)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(2 * time.Second)
	if *done != len(ops) {
		t.Fatalf("setup commits %d/%d", *done, len(ops))
	}

	// s0 (primary of view 0) suffers a data-loss fault: both its
	// commit log and prepare log vanish (Section 4.4's dangerous case).
	c.net.At(c.net.Now(), func() {
		c.replicas[0].InjectDropCommitLog(1, 100)
		c.replicas[0].InjectDropPrepareLog(1, 100)
	})
	// Trigger a view change; s1 is correct and synchronous, so its
	// view-change message carries commit-log entries from view 0 —
	// entries s0 must have prepared but can no longer show.
	c.net.At(c.net.Now()+10*time.Millisecond, func() { c.replicas[1].suspect(0) })
	c.run(5 * time.Second)

	detected := false
	for _, id := range []smr.NodeID{1, 2} {
		if c.hasDetection(id, "state-loss", 0) {
			detected = true
		}
	}
	if !detected {
		t.Fatalf("data-loss fault of s0 not detected; detections: %v", c.detections)
	}
	// Consistency must nevertheless hold (we are outside anarchy).
	c.checkLemma1()
}

// TestFDStrongAccuracyCrashesOnly: benign behaviour (crashes, view
// changes) must never be convicted (Theorem 6).
func TestFDStrongAccuracyCrashesOnly(t *testing.T) {
	c := fdCluster(t, 1)
	done, stop := steadyLoad(c, 0)
	c.net.At(1*time.Second, func() { c.net.Crash(1) })
	c.net.At(4*time.Second, func() { c.net.Recover(1) })
	c.net.At(6*time.Second, func() { c.net.Crash(0) })
	c.net.At(9*time.Second, func() { c.net.Recover(0) })
	c.run(12 * time.Second)
	stop()
	c.run(2 * time.Second)
	if *done < 5 {
		t.Fatalf("insufficient progress: %d", *done)
	}
	if d := c.anyDetection(); d != "" {
		t.Fatalf("strong accuracy violated: %s", d)
	}
	c.checkLemma1()
}

// TestFDStrongAccuracyPartitions: network faults alone must not
// produce convictions either.
func TestFDStrongAccuracyPartitions(t *testing.T) {
	c := fdCluster(t, 1)
	done, stop := steadyLoad(c, 0)
	c.net.At(1*time.Second, func() { c.net.Partition(1) })
	c.net.At(4*time.Second, func() { c.net.HealAll() })
	c.net.At(6*time.Second, func() { c.net.Partition(0) })
	c.net.At(9*time.Second, func() { c.net.HealAll() })
	c.run(12 * time.Second)
	stop()
	c.run(2 * time.Second)
	if *done < 5 {
		t.Fatalf("insufficient progress: %d", *done)
	}
	if d := c.anyDetection(); d != "" {
		t.Fatalf("strong accuracy violated under partitions: %s", d)
	}
	c.checkLemma1()
}

// TestFDDetectsForkI: a replica whose prepare log regresses to an
// older view than entries it helped commit is convicted of fork-I.
func TestFDDetectsForkI(t *testing.T) {
	c := fdCluster(t, 1)
	ops := make([][]byte, 4)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(2 * time.Second)
	if *done != len(ops) {
		t.Fatalf("setup commits %d/%d", *done, len(ops))
	}
	// Force a first view change so prepare logs are regenerated in
	// view 1 ({s0,s2}).
	c.net.At(c.net.Now(), func() { c.replicas[1].suspect(0) })
	c.run(3 * time.Second)
	if c.replicas[0].View() != 1 || c.replicas[0].InViewChange() {
		t.Fatalf("setup: s0 not settled in view 1 (view=%d)", c.replicas[0].View())
	}
	// s0 commits something in view 1, then forks: it replaces its
	// prepare-log entry at sn=1 with a *different* batch it signs as
	// the view-0 primary (it was the primary of view 0, so the forged
	// signature verifies) — a fork-I fault w.r.t. view 1 commits.
	c.net.At(c.net.Now(), func() {
		forged := Batch{Reqs: []Request{{Op: kv.PutOp("evil", []byte("e")), TS: 999, Client: 1500}}}
		forged.Reqs[0].Sig = c.suite.Sign(1500, forged.Reqs[0].SigPayload())
		if !c.replicas[0].InjectRegressPrepare(1, 0) {
			t.Errorf("regress injection failed")
		}
		_ = forged
	})
	c.net.At(c.net.Now()+10*time.Millisecond, func() { c.replicas[2].suspect(1) })
	c.run(5 * time.Second)
	detected := false
	for _, id := range []smr.NodeID{1, 2} {
		if c.hasDetection(id, "fork-i", 0) || c.hasDetection(id, "state-loss", 0) {
			detected = true
		}
	}
	if !detected {
		t.Fatalf("fork-I fault not detected; detections: %v", c.detections)
	}
	c.checkLemma1()
}

// TestFDDetectionPropagates: a conviction made by one correct replica
// spreads to all correct replicas via the broadcast proof (Lemma 15).
func TestFDDetectionPropagates(t *testing.T) {
	c := fdCluster(t, 1)
	ops := make([][]byte, 3)
	for i := range ops {
		ops[i] = kv.PutOp(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := c.invokeSeq(0, ops, nil)
	c.run(2 * time.Second)
	if *done != len(ops) {
		t.Fatalf("setup failed")
	}
	c.net.At(c.net.Now(), func() {
		c.replicas[0].InjectDropCommitLog(1, 100)
		c.replicas[0].InjectDropPrepareLog(1, 100)
	})
	c.net.At(c.net.Now()+10*time.Millisecond, func() { c.replicas[1].suspect(0) })
	c.run(5 * time.Second)
	for _, id := range []smr.NodeID{1, 2} {
		if !c.hasDetection(id, "state-loss", 0) {
			t.Errorf("replica %d missing propagated conviction; has %v", id, c.detections[id])
		}
	}
}

// TestAnarchyCanViolateConsistency demonstrates the model boundary:
// with a non-crash fault *and* a partition exceeding t (anarchy),
// XPaxos may assign conflicting requests to a sequence number — the
// behaviour the paper explicitly accepts outside its guarantee domain
// (Definition 3). FD is disabled here, mirroring Figure 11a.
func TestAnarchyCanViolateConsistency(t *testing.T) {
	// Lazy replication is dropped so the passive replica starts the
	// view change with an empty commit log, as in Figure 11 ("5. <>");
	// with it enabled the passive's copy would mask the violation.
	c := newCluster(t, clusterOpts{t: 1, clients: 2, reqTimeout: 200 * time.Millisecond,
		filter: noLazyReplication})
	cl := c.clients[0]
	var rep0 []byte
	cl.cfg.OnCommit = func(op, rep []byte, lat time.Duration) { rep0 = rep }
	c.net.At(0, func() { cl.Invoke(kv.PutOp("committed-key", []byte("v1"))) })
	c.run(time.Second)
	if cl.Committed != 1 {
		t.Fatalf("setup commit failed")
	}
	_ = rep0

	// Anarchy: s0 turns non-crash-faulty (wipes all state) while s1 is
	// partitioned — tnc=1, tp=1, tc+tnc+tp = 2 > t=1.
	c.net.At(c.net.Now(), func() {
		c.replicas[0].InjectWipeState()
		c.net.Partition(1)
	})
	// Drive a view change into view 1 = (s0, s2): only the wiped s0 and
	// the empty passive s2 contribute view-change messages.
	c.net.At(c.net.Now()+10*time.Millisecond, func() { c.replicas[0].suspect(0) })
	c.run(3 * time.Second)

	// A second client now commits a *different* request, which lands at
	// the same sequence number 1 because the selection saw nothing.
	cl2 := c.clients[1]
	cl2.cfg.OnCommit = func(op, rep []byte, lat time.Duration) {}
	c.net.At(c.net.Now(), func() { cl2.Invoke(kv.PutOp("conflicting-key", []byte("v2"))) })
	c.run(3 * time.Second)
	if cl2.Committed != 1 {
		t.Fatalf("second client did not commit (view s0=%d s2=%d)", c.replicas[0].View(), c.replicas[2].View())
	}

	// Consistency violated: sequence number 1 carries the first request
	// at s1 (view 0) and the second at s2 (view ≥ 1).
	e1, ok1 := c.replicas[1].CommitLogEntry(1)
	e2, ok2 := c.replicas[2].CommitLogEntry(1)
	if !ok1 || !ok2 {
		t.Fatalf("missing commit entries for the demonstration (ok1=%v ok2=%v)", ok1, ok2)
	}
	if e1.Primary.BatchD == e2.Primary.BatchD {
		t.Fatalf("expected conflicting batches at sn=1 in anarchy; got identical")
	}
}

// TestFDPreventsSilentDataLossSurvival verifies the FD design goal
// stated in Section 4.4: the data-loss fault is caught at the first
// view change after it happens — before it can combine with later
// crashes/partitions into anarchy.
func TestFDDetectionHappensBeforeAnarchy(t *testing.T) {
	c := fdCluster(t, 1)
	ops := [][]byte{kv.PutOp("a", []byte("1")), kv.PutOp("b", []byte("2"))}
	done := c.invokeSeq(0, ops, nil)
	c.run(2 * time.Second)
	if *done != len(ops) {
		t.Fatalf("setup failed")
	}
	c.net.At(c.net.Now(), func() {
		c.replicas[0].InjectDropCommitLog(1, 100)
		c.replicas[0].InjectDropPrepareLog(1, 100)
	})
	// An ordinary, fault-free view change happens (say, operators
	// rotate the group). No crash, no partition — far from anarchy.
	c.net.At(c.net.Now()+10*time.Millisecond, func() { c.replicas[0].suspect(0) })
	c.run(5 * time.Second)
	if c.anyDetection() == "" {
		t.Fatalf("fault survived a view change undetected")
	}
}
