package xpaxos

import (
	"sort"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// ---------------------------------------------------------------------------
// Replicated-state snapshots
//
// A checkpoint snapshot covers the application state *and* the client
// bookkeeping: the reply cache is part of the replicated state, so a
// replica that restores from a snapshot produces the same reply digests
// as one that executed the log.
// ---------------------------------------------------------------------------

// clientState is what a snapshot carries per client: the execMark and
// every cached reply inside its window.
type clientState struct {
	id smr.NodeID
	execMark
	replies []cachedReply
}

// snapMinWire is the smallest encoding of a clientState, and of a
// cachedReply: three integers and a count.
const snapMinWire = 28

func (cs *clientState) code(c *wire.Coder) {
	wire.I64(c, &cs.id)
	wire.U64(c, &cs.last)
	wire.U64(c, &cs.bits)
	wire.Slice(c, &cs.replies, snapMinWire, func(cr *cachedReply, c *wire.Coder) {
		wire.U64(c, &cr.TS)
		wire.U64(c, &cr.SN)
		wire.U64(c, &cr.View)
		wire.Bytes(c, &cr.Rep)
	})
	if len(cs.replies) > execWindowBits {
		c.Fail()
	}
}

// snapshotState serializes the replica's full replicated state: the
// application snapshot, then the clients in ascending order, replies
// ascending by timestamp, so the encoding — and therefore the
// checkpoint digest — is identical across replicas. The sessions are
// encoded first, so the application's snapshot, which may run to
// megabytes, is copied once into a buffer of the final size.
func (r *Replica) snapshotState() []byte {
	var clients []clientState
	for _, id := range r.knownClients() {
		clients = append(clients, clientState{id, r.sessions[id].execMark, r.sessions[id].replies()})
	}
	tail := wire.New(1024)
	wire.Slice(wire.Encoder(tail), &clients, snapMinWire, (*clientState).code)
	app := r.app.Snapshot()
	return wire.New(4 + len(app) + len(tail.Done())).Bytes(app).Raw(tail.Done()).Done()
}

// restoreState installs a snapshot produced by snapshotState: every
// session's mark and replies become the snapshot's, and what the
// sessions held open is pruned against them.
func (r *Replica) restoreState(snap []byte) bool {
	var appSnap []byte
	var clients []clientState
	c := wire.Decoder(snap)
	wire.Bytes(c, &appSnap)
	if !c.OK() || r.app.Restore(appSnap) != nil {
		return false
	}
	if wire.Slice(c, &clients, snapMinWire, (*clientState).code); !c.OK() {
		return false
	}
	for _, s := range r.sessions {
		s.execMark = execMark{}
		for i := range s.slots {
			s.slots[i].reply = cachedReply{}
		}
	}
	for _, cs := range clients {
		s := r.session(cs.id)
		s.execMark = cs.execMark
		for _, cr := range cs.replies {
			s.slots[cr.TS%execWindowBits].reply = cr
		}
	}
	r.pruneSessions(false)
	return true
}

// ---------------------------------------------------------------------------
// Checkpointing (Section 4.5.1, Figure 4)
// ---------------------------------------------------------------------------

// maxPendingSnaps bounds how many checkpoint-candidate snapshots a
// replica retains while awaiting stabilization.
const maxPendingSnaps = 8

// maybeCheckpoint is called right after executing sequence number sn.
// At every CHK-th batch the replica keeps a snapshot of its state at
// the candidate and, if active, votes prechk (MAC-authenticated).
func (r *Replica) maybeCheckpoint(sn smr.SeqNum) {
	c := r.candidate(sn)
	if c == nil {
		return
	}
	snap := r.snapshotState()
	c.snap = snap
	// Bound the retained snapshots: a passive replica whose lazychk
	// stream is shed would otherwise accumulate one full snapshot per
	// interval forever. A checkpoint stabilizing at a dropped height is
	// adopted through the view-change state transfer instead.
	r.log.keepSnaps(maxPendingSnaps)
	if !r.isActive() {
		return // passive replicas snapshot locally but do not vote
	}
	d := crypto.Hash(snap)
	m := &MsgPrechk{SN: sn, View: r.view, StateD: d, From: r.id}
	for _, id := range r.group {
		if id != r.id {
			mm := *m
			mm.MAC = r.suite.MAC(crypto.NodeID(r.id), crypto.NodeID(id), mm.MACPayload())
			r.env.Send(id, &mm)
		}
	}
	r.addPrechkVote(c, sn, r.id, d)
}

func (r *Replica) addPrechkVote(c *chkCandidate, sn smr.SeqNum, from smr.NodeID, d crypto.Digest) {
	if c.prechk == nil {
		c.prechk = make(map[smr.NodeID]crypto.Digest)
	}
	c.prechk[from] = d
	// t+1 matching prechk messages → sign and broadcast chkpt.
	count := 0
	for _, vd := range c.prechk {
		if vd == d {
			count++
		}
	}
	if count < r.t+1 {
		return
	}
	c.prechk = nil
	rec := ChkptRecord{SN: sn, View: r.view, StateD: d, From: r.id}
	rec.Sig = r.suite.Sign(crypto.NodeID(r.id), rec.SigPayload())
	r.sendActives(&MsgChkpt{Rec: rec})
	r.addChkptVote(c, rec)
}

// onPrechk handles a pre-checkpoint vote. Votes are kept per candidate
// height, so the height must be one the log admits.
func (r *Replica) onPrechk(from smr.NodeID, m *MsgPrechk) {
	if !r.isActive() || m.From != from || !InGroup(r.n, r.t, m.View, m.From) {
		return
	}
	c := r.candidate(m.SN)
	if c == nil {
		return
	}
	if !r.suite.VerifyMAC(crypto.NodeID(from), crypto.NodeID(r.id), m.MACPayload(), m.MAC) {
		return
	}
	r.addPrechkVote(c, m.SN, m.From, m.StateD)
}

// onChkpt handles a signed checkpoint record: one per replica per
// candidate height the log admits.
func (r *Replica) onChkpt(from smr.NodeID, m *MsgChkpt) {
	rec := m.Rec
	if rec.From != from || int(from) < 0 || int(from) >= r.n {
		return
	}
	c := r.candidate(rec.SN)
	if c == nil {
		return
	}
	if !r.suite.Verify(crypto.NodeID(rec.From), rec.SigPayload(), rec.Sig) {
		return
	}
	r.addChkptVote(c, rec)
}

func (r *Replica) addChkptVote(c *chkCandidate, rec ChkptRecord) {
	if c.chkpt == nil {
		c.chkpt = make(map[smr.NodeID]ChkptRecord)
	}
	c.chkpt[rec.From] = rec
	matching := make([]ChkptRecord, 0, r.t+1)
	for _, v := range c.chkpt {
		if v.StateD == rec.StateD {
			matching = append(matching, v)
		}
	}
	if len(matching) < r.t+1 {
		return
	}
	sort.Slice(matching, func(i, j int) bool { return matching[i].From < matching[j].From })
	proof := CheckpointProof{SN: rec.SN, StateD: rec.StateD, Proof: matching[:r.t+1]}
	if c.snap == nil {
		return // have not executed this far yet; stabilize later
	}
	r.stabilizeCheckpoint(proof, c.snap)
	// Propagate to passive replicas (Figure 4, lazychk).
	if r.isActive() {
		msg := &MsgLazyChk{Proof: proof}
		for _, id := range Passive(r.n, r.t, r.view) {
			r.env.Send(id, msg)
		}
	}
}

// stabilizeCheckpoint installs a stable checkpoint and truncates logs.
func (r *Replica) stabilizeCheckpoint(proof CheckpointProof, snap []byte) {
	if proof.SN <= r.chk.SN {
		return
	}
	r.chk = proof
	r.chkSnapshot = snap
	// Everything at or below the stable point is dead, the candidate at
	// proof.SN included: its snapshot now lives in chkSnapshot.
	r.log.truncate(proof.SN)
	r.prune()
	r.logCheckpoint(&proof, snap)
}

// adoptCheckpoint installs a checkpoint received through a view change
// when we are behind: restore the snapshot and fast-forward execution.
func (r *Replica) adoptCheckpoint(proof CheckpointProof, snap []byte) {
	if proof.SN <= r.chk.SN {
		return
	}
	if r.ex < proof.SN {
		if !r.restoreState(snap) {
			return
		}
		r.ex = proof.SN
		if r.sn < r.ex {
			r.sn = r.ex
		}
	}
	r.stabilizeCheckpoint(proof, snap)
}

// verifyCheckpointProof checks t+1 distinct matching signed records.
func (r *Replica) verifyCheckpointProof(p *CheckpointProof) bool {
	if p.SN == 0 && len(p.Proof) == 0 {
		return true // the genesis checkpoint
	}
	if len(p.Proof) < r.t+1 {
		return false
	}
	seen := make(map[smr.NodeID]bool, len(p.Proof))
	for i := range p.Proof {
		rec := &p.Proof[i]
		if rec.SN != p.SN || rec.StateD != p.StateD || seen[rec.From] {
			return false
		}
		if int(rec.From) < 0 || int(rec.From) >= r.n {
			return false
		}
		seen[rec.From] = true
		if !r.suite.Verify(crypto.NodeID(rec.From), rec.SigPayload(), rec.Sig) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Lazy replication (Section 4.5.2, Figure 5)
// ---------------------------------------------------------------------------

// lazyReplicate ships a freshly committed entry to passive replicas.
// For t = 1 the (single) follower serves the (single) passive replica;
// for t ≥ 2 follower j ships the entries with sn ≡ j (mod t) to every
// passive replica, so the load splits 1/t per follower.
func (r *Replica) lazyReplicate(entry *CommitEntry) {
	idx := r.followerPos(r.id)
	if idx < 0 {
		return // only followers replicate lazily
	}
	if r.t >= 2 && int(uint64(entry.SN())%uint64(r.t)) != idx {
		return
	}
	msg := &MsgLazyCommit{Entry: *entry}
	for _, id := range Passive(r.n, r.t, r.view) {
		r.env.Send(id, msg)
	}
}

// onLazyCommit installs a lazily replicated entry at a passive
// replica. The commit certificate carries t+1 signatures, so its
// validity does not depend on trusting the sender.
func (r *Replica) onLazyCommit(from smr.NodeID, m *MsgLazyCommit) {
	entry := m.Entry
	sn := entry.SN()
	if sn <= r.chk.SN || sn <= r.ex {
		return
	}
	// No slot means sn is too far above the execution mark to ever run
	// here: the hole below it only closes through a view change's state
	// transfer. Such an entry is not kept; all it can still tell us is
	// that the system moved to a later view.
	s := r.slot(sn)
	if s == nil && entry.View() <= r.view {
		return
	}
	if s != nil && s.commit != nil && s.commit.View() >= entry.View() {
		return
	}
	if !r.verifyCommitEntry(&entry) {
		return
	}
	// A valid certificate from a later view tells a lagging replica the
	// system moved on; adopt the view passively.
	if entry.View() > r.view && r.status == statusNormal {
		r.view = entry.View()
		r.group = SyncGroup(r.n, r.t, r.view)
	}
	if s == nil {
		return
	}
	s.commit = &entry
	r.logCommitEntry(&entry)
	r.notifyCommit(&entry)
	r.executePassive()
}

// executePassive applies contiguous committed entries without sending
// client replies (passive replicas stay mute, Section 4.1).
func (r *Replica) executePassive() {
	for {
		s := r.slot(r.ex + 1)
		if s == nil || s.commit == nil {
			return
		}
		entry, sn := s.commit, r.ex+1
		r.applyBatch(&entry.Batch, sn, entry.View())
		r.ex = sn
		r.maybeCheckpoint(sn)
	}
}

// onLazyChk lets a passive replica adopt a stable checkpoint proof.
func (r *Replica) onLazyChk(from smr.NodeID, m *MsgLazyChk) {
	proof := m.Proof
	if proof.SN <= r.chk.SN {
		return
	}
	if !r.verifyCheckpointProof(&proof) {
		return
	}
	c := r.candidate(proof.SN)
	if c == nil || c.snap == nil || crypto.Hash(c.snap) != proof.StateD {
		return // we have not reached this state; a view change will transfer it
	}
	r.stabilizeCheckpoint(proof, c.snap)
}
