package xpaxos

import (
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// ---------------------------------------------------------------------------
// Durability: the write-ahead log under the commit log.
//
// When Config.WAL is set, every commit-log insertion and every stable
// checkpoint is appended to the durable log. Writes are asynchronous
// and group-committed: records accumulate in walPending while one disk
// batch is in flight (Env.Defer with smr.DeferKindWAL — append all
// records, one fsync), so durability overlaps crypto and networking
// off the Step loop and the fsync cost amortizes across the pipeline.
// Protocol progress is deliberately not gated on the disk: XFT counts
// a crashed replica among the t tolerated faults, and recovery only
// promises a prefix of the committed log (what reached the disk),
// which is exactly the crash-fault contract.
//
// On startup, NewReplica replays the log: the newest checkpoint
// record restores the replicated state, and the committed entries
// re-execute in order from there (recoverFromWAL). Checkpoint
// stabilization truncates segments wholly below the checkpoint record.
// ---------------------------------------------------------------------------

// WAL record tags (first byte of every record payload).
const (
	walRecCommit     byte = 1 // CommitEntry wire encoding
	walRecCheckpoint byte = 2 // CheckpointProof wire encoding + snapshot
)

// maxWALPending bounds the accumulated not-yet-dispatched batch. A
// disk too slow for the commit rate sheds commit records — recovery
// then replays a shorter prefix, which is safe — rather than growing
// memory without bound. Checkpoint records are never shed.
const maxWALPending = 8192

// walRecord is one pending durable record.
type walRecord struct {
	payload []byte
	chk     bool // checkpoint record: truncate the log behind it
}

func encodeCommitRecord(e *CommitEntry) []byte {
	w := wire.New(256).U8(walRecCommit)
	e.code(wire.Encoder(w))
	return w.Done()
}

func encodeCheckpointRecord(proof *CheckpointProof, snap []byte) []byte {
	w := wire.New(256 + len(snap)).U8(walRecCheckpoint)
	codeCheckpointRecord(wire.Encoder(w), proof, &snap)
	return w.Done()
}

// codeCheckpointRecord is the field list of a checkpoint record's body.
func codeCheckpointRecord(c *wire.Coder, proof *CheckpointProof, snap *[]byte) {
	proof.code(c)
	wire.Bytes(c, snap)
}

// logCommitEntry queues a freshly committed entry for the durable log.
// Called at every commit-log insertion; recovery writes the commit log
// directly and does not come through here (its entries are already on
// disk).
func (r *Replica) logCommitEntry(e *CommitEntry) {
	if r.wal == nil {
		return
	}
	if len(r.walPending) >= maxWALPending {
		r.walDropped++
		return
	}
	r.walPending = append(r.walPending, walRecord{payload: encodeCommitRecord(e)})
	r.kickWAL()
}

// logCheckpoint queues a stable checkpoint (proof + state snapshot).
// Once it is durable, the log behind it is dead weight and the writer
// truncates those segments.
func (r *Replica) logCheckpoint(proof *CheckpointProof, snap []byte) {
	if r.wal == nil {
		return
	}
	r.walPending = append(r.walPending, walRecord{payload: encodeCheckpointRecord(proof, snap), chk: true})
	r.kickWAL()
}

// kickWAL dispatches the accumulated records as one group commit:
// every pending record is appended and a single fsync covers them all.
// One batch is in flight at a time — records arriving meanwhile form
// the next batch — which both preserves append order (Defer jobs of
// the same node have no ordering guarantee otherwise) and makes batch
// size track disk latency: the slower the fsync, the more records each
// one covers.
func (r *Replica) kickWAL() {
	if r.wal == nil || r.walInFlight || len(r.walPending) == 0 {
		return
	}
	batch := r.walPending
	r.walPending = nil
	r.walInFlight = true
	w := r.wal
	var err error
	r.env.Defer(smr.DeferKindWAL,
		func() {
			var chkLSN uint64
			for _, rec := range batch {
				var lsn uint64
				if lsn, err = w.Append(rec.payload); err != nil {
					return
				}
				if rec.chk {
					chkLSN = lsn
				}
			}
			if err = w.Sync(); err != nil {
				return
			}
			if chkLSN != 0 {
				// The batch stabilized a checkpoint: everything durable
				// strictly before its record is recoverable from the
				// snapshot instead. Whole dead segments are deleted.
				err = w.TruncateFront(chkLSN)
			}
		},
		func() {
			// Unlike goCrypto completions, this apply is not epoch
			// guarded: the in-flight flag must clear across view changes
			// too, or the writer would wedge forever.
			r.walInFlight = false
			if err != nil {
				// Disk failure: durability is lost, not liveness. Drop
				// the log and keep serving from memory; the operator
				// sees WALError.
				r.walErr = err
				r.wal = nil
				r.walPending = nil
				return
			}
			r.kickWAL()
		})
}

// WALError reports a durable-log write failure (nil while healthy).
// After a failure the replica continues in-memory only. Must be read
// from event context, or after the runtime has stopped the node.
func (r *Replica) WALError() error { return r.walErr }

// WALDropped counts commit records shed because the disk could not
// keep up (same access rules as WALError).
func (r *Replica) WALDropped() uint64 { return r.walDropped }

// recoverFromWAL rebuilds the replica from its durable log: restore
// the newest checkpoint snapshot, then re-execute committed entries in
// order from there. Called from NewReplica before the runtime
// attaches — nothing is sent, no timers are set, and commit
// notifications are suppressed (recovery reconstructs old commits, it
// does not decide new ones). Records are CRC-protected by the log
// framing and were written by this replica, so their signatures are
// not re-verified. Replay yields a prefix of what was committed:
// anything lost behind a torn tail or a shed record is simply absent,
// and the replica rejoins from an earlier — still consistent — state.
func (r *Replica) recoverFromWAL() {
	var proof CheckpointProof
	var snap []byte
	entries := make(map[smr.SeqNum]*CommitEntry)
	r.wal.Replay(func(_ uint64, payload []byte) error {
		c := wire.Decoder(payload)
		var tag byte
		wire.U8(c, &tag)
		switch tag {
		case walRecCommit:
			e := new(CommitEntry)
			if e.code(c); c.OK() {
				// Later records win: a view change may re-commit the
				// same sequence number in a newer view.
				if cur, dup := entries[e.SN()]; !dup || e.View() >= cur.View() {
					entries[e.SN()] = e
				}
			}
		case walRecCheckpoint:
			var p CheckpointProof
			var s []byte
			if codeCheckpointRecord(c, &p, &s); c.OK() && p.SN >= proof.SN {
				proof, snap = p, s
			}
		}
		return nil
	})
	var maxView smr.View
	if proof.SN > 0 && r.restoreState(snap) {
		r.chk = proof
		r.chkSnapshot = snap
		r.log.truncate(proof.SN)
		r.ex, r.sn = proof.SN, proof.SN
		for i := range proof.Proof {
			if v := proof.Proof[i].View; v > maxView {
				maxView = v
			}
		}
	}
	for {
		e, ok := entries[r.ex+1]
		if !ok {
			break // gap (shed or torn records): the prefix ends here
		}
		sn := r.ex + 1
		r.slot(sn).commit = e
		r.applyBatch(&e.Batch, sn, e.View())
		r.ex = sn
		if sn > r.sn {
			r.sn = sn
		}
		if v := e.View(); v > maxView {
			maxView = v
		}
		if c := r.candidate(sn); c != nil {
			// Keep the local snapshot a checkpoint at this height would
			// have produced, so a checkpoint the cluster stabilizes
			// later can still stabilize here (no votes are re-sent).
			c.snap = r.snapshotState()
		}
	}
	// Resume in the newest view the durable state names; the group
	// will gossip us forward if it has moved on.
	r.view = maxView
	r.group = SyncGroup(r.n, r.t, r.view)
}
