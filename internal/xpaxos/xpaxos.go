// Package xpaxos implements XPaxos, the state-machine replication
// protocol of the XFT model, from "XFT: Practical Fault Tolerance
// Beyond Crashes" (OSDI 2016), Section 4 and Appendices A–C.
//
// XPaxos runs n = 2t+1 replicas and tolerates, outside anarchy, any
// combination of at most t crash faults, non-crash (Byzantine) faults
// and partitioned replicas. Its three components are implemented here:
//
//   - the common case (intake.go, order.go, execute.go, over the
//     sequence log of seqlog.go): clients' signed requests are
//     replicated across the t+1 active replicas of the current
//     synchronous group, with the optimized two-message pattern for
//     t = 1 (Figure 2b) and the prepare/commit pattern for t ≥ 2
//     (Figure 2a), plus batching;
//   - the decentralized view change (viewchange.go, over the view log
//     of viewlog.go): all active replicas of the new synchronous group
//     collect view-change messages (waiting for ≥ n−t of them and a 2Δ
//     timer), exchange them via vc-final, and the new primary
//     re-prepares the selected requests (Figure 3, Algorithm 3);
//   - fault detection (fd.go, on the same view log): prepare logs
//     travel in view-change messages and a vc-confirm phase produces
//     transferable proofs, so data-loss and fork faults that would
//     violate consistency in anarchy are detected outside anarchy
//     (Algorithms 5–6);
//
// plus the optimizations of Section 4.5: checkpointing and lazy
// replication (checkpoint.go) and client request retransmission
// (client.go and watch.go, Algorithm 4).
//
// The message set is declared in messages.go (types, signed payloads,
// modelled sizes) and put on the wire by codec.go, where every wire
// type is one field list that both encodes and decodes it and the tag
// table lists the 21 messages once.
package xpaxos

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wal"
)

// Config parameterizes a replica or client.
type Config struct {
	// N is the total number of replicas, N = 2T+1.
	N int
	// T is the number of tolerated faults.
	T int
	// Suite provides signatures, MACs and digests. Wrap it in a
	// crypto.Meter to charge CPU costs in the simulator.
	Suite crypto.Suite
	// Delta is Δ, the known bound on timely communication between
	// correct replicas (Section 2). The view-change network timer is
	// 2Δ.
	Delta time.Duration
	// BatchSize is the maximum number of requests per batch (paper: 20).
	BatchSize int
	// BatchTimeout bounds how long the primary waits to fill a batch.
	BatchTimeout time.Duration
	// PipelineWindow is the maximum number of sequence numbers the
	// primary keeps in flight (assigned but not yet executed) at once.
	// 1 yields the classic lock-step common case: one batch must commit
	// before the next is proposed. Larger windows let the primary
	// stream batches so its own crypto/work overlaps the followers'.
	// Default 32.
	PipelineWindow int
	// IntakeQueueCap bounds the primary's admission queue of pending
	// client requests (default 4096). Arrivals beyond the bound are
	// shed — counted in IntakeStats, never queued — so a request blast
	// cannot grow memory while the pipeline window is full; clients
	// recover via their retransmission protocol. One client holds at
	// most 64 of the queue, its session window.
	IntakeQueueCap int
	// RequestTimeout is the client's retransmission timer and the
	// active replicas' per-request progress timer (Algorithm 4).
	RequestTimeout time.Duration
	// ViewChangeTimeout is timer_vc: how long a new active replica
	// waits for a view change to complete before suspecting the new
	// view.
	ViewChangeTimeout time.Duration
	// CheckpointInterval is CHK: a checkpoint is taken every CHK
	// batches. Zero disables checkpointing.
	CheckpointInterval uint64
	// EnableFD turns on the fault-detection mechanism (Section 4.4).
	EnableFD bool
	// WAL, if set, is the replica's durable write-ahead log: committed
	// entries and stable checkpoints are appended and group-committed
	// off the Step loop, and NewReplica replays the log to recover the
	// replica's state after a crash (see durability.go). Nil keeps the
	// replica purely in-memory. The replica owns the log once passed
	// in; callers must not touch it afterwards.
	WAL wal.WAL

	// Observer, if set, is invoked on every local commit.
	Observer smr.CommitObserver
	// OnViewChange, if set, is invoked when the replica completes a
	// view change and resumes normal operation in the new view.
	OnViewChange func(newView smr.View, at time.Duration)
	// OnFaultDetected, if set, is invoked when FD convicts a replica.
	OnFaultDetected func(culprit smr.NodeID, kind string, sn smr.SeqNum)
}

// withDefaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 2*c.T + 1
	}
	if c.T == 0 {
		c.T = (c.N - 1) / 2
	}
	if c.N != 2*c.T+1 {
		panic(fmt.Sprintf("xpaxos: N=%d must equal 2T+1 (T=%d)", c.N, c.T))
	}
	if c.BatchSize == 0 {
		c.BatchSize = 20
	}
	if c.Delta == 0 {
		c.Delta = 1250 * time.Millisecond // Section 5.1.1
	}
	if c.BatchTimeout == 0 {
		c.BatchTimeout = 5 * time.Millisecond
	}
	if c.PipelineWindow == 0 {
		c.PipelineWindow = 32
	}
	if c.IntakeQueueCap <= 0 {
		c.IntakeQueueCap = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 4 * c.Delta
	}
	if c.ViewChangeTimeout == 0 {
		c.ViewChangeTimeout = 4 * c.Delta
	}
	return c
}

// ---------------------------------------------------------------------------
// Synchronous groups (Section 4.3.1, Table 2)
// ---------------------------------------------------------------------------

// GroupCount returns the number of distinct synchronous groups,
// C(n, t+1).
func GroupCount(n, t int) int {
	return binomial(n, t+1)
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// SyncGroup returns the t+1 active replicas of view v, in order; the
// first member is the primary. Groups enumerate all C(n, t+1)
// combinations of replicas in lexicographic order and rotate
// round-robin across views, reproducing Table 2 for t = 1:
//
//	view 0: (s0,s1) primary s0 | view 1: (s0,s2) primary s0 |
//	view 2: (s1,s2) primary s1 | then wrapping around.
func SyncGroup(n, t int, v smr.View) []smr.NodeID {
	combos := cachedCombinations(n, t+1)
	c := combos[int(v)%len(combos)]
	out := make([]smr.NodeID, len(c))
	for i, x := range c {
		out[i] = smr.NodeID(x)
	}
	return out
}

// comboCache memoizes combinations(n, k) per (n, k). SyncGroup sits on
// the hot path of every replica and client (message routing, quorum
// membership), and re-enumerating all C(n, t+1) groups per call is
// quadratic pain at campaign scale — n = 13 yields 1716 groups, which
// used to be rebuilt for every single message. The cache is append-only
// and guarded for the live runtime's concurrent nodes; the entries
// themselves are never mutated after insertion.
var comboCache struct {
	sync.RWMutex
	m map[[2]int][][]int
}

func cachedCombinations(n, k int) [][]int {
	key := [2]int{n, k}
	comboCache.RLock()
	c, ok := comboCache.m[key]
	comboCache.RUnlock()
	if ok {
		return c
	}
	comboCache.Lock()
	defer comboCache.Unlock()
	if comboCache.m == nil {
		comboCache.m = make(map[[2]int][][]int)
	}
	if c, ok = comboCache.m[key]; !ok {
		c = combinations(n, k)
		comboCache.m[key] = c
	}
	return c
}

// Passive returns the replicas of view v that are not active.
func Passive(n, t int, v smr.View) []smr.NodeID {
	in := make(map[smr.NodeID]bool, t+1)
	for _, id := range SyncGroup(n, t, v) {
		in[id] = true
	}
	var out []smr.NodeID
	for i := 0; i < n; i++ {
		if !in[smr.NodeID(i)] {
			out = append(out, smr.NodeID(i))
		}
	}
	return out
}

// Primary returns the primary of view v.
func Primary(n, t int, v smr.View) smr.NodeID { return SyncGroup(n, t, v)[0] }

// InGroup reports whether id is active in view v.
func InGroup(n, t int, v smr.View, id smr.NodeID) bool {
	return slices.Contains(SyncGroup(n, t, v), id)
}

// NextViableView returns the first view at or after from whose whole
// synchronous group is believed up, given the set of replicas a node
// currently believes down. Every entry needs the whole group, so a
// view with any down member — primary or follower — cannot make
// progress. It is the one view-skipping rule: replicas suspect a view
// it skips, clients point their guess at the view it returns. It
// reports false when more than t replicas are down: then every group
// contains one, there is nowhere better to go, and timers must drive.
func NextViableView(n, t int, from smr.View, down map[smr.NodeID]bool) (smr.View, bool) {
	downReplicas := 0
	for i := 0; i < n; i++ {
		if down[smr.NodeID(i)] {
			downReplicas++
		}
	}
	if downReplicas == 0 {
		return from, true
	}
	if downReplicas > t {
		return from, false
	}
	// One rotation visits every group, and with at most t of 2t+1
	// replicas down one of them is all up.
	groups := cachedCombinations(n, t+1)
search:
	for i := range groups {
		v := from + smr.View(i)
		for _, id := range groups[int(v)%len(groups)] {
			if down[smr.NodeID(id)] {
				continue search
			}
		}
		return v, true
	}
	return from, false
}

// combinations enumerates k-subsets of {0..n-1} in lexicographic order.
func combinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
