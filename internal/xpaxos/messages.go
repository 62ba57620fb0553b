package xpaxos

import (
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// msgHeader is the modeled fixed per-message framing overhead in bytes
// (type tag, lengths, addressing).
const msgHeader = 24

// ---------------------------------------------------------------------------
// Requests and batches
// ---------------------------------------------------------------------------

// Request is a client request ⟨replicate, op, ts_c, c⟩σ_c.
type Request struct {
	Op     []byte
	TS     uint64
	Client smr.NodeID
	Sig    crypto.Signature

	// digest memoizes Digest. Requests are immutable once built, and a
	// view change re-hashes the same requests once per hauled entry per
	// message per replica — at scale that recomputation dominated whole
	// campaign runs. The fill is idempotent (any writer computes the
	// same bytes), and cross-goroutine publication of entries under the
	// live runtime's async crypto goes through the Async completion,
	// which orders the write before event-loop readers.
	digest    crypto.Digest
	digestSet bool
	// verified notes that this replica checked Sig; never encoded.
	verified bool
}

// SigPayload returns the bytes the client signs.
func (r *Request) SigPayload() []byte {
	return r.appendSigPayload(wire.New(len(r.Op) + 32))
}

// appendSigPayload writes the signed bytes into w, letting hot paths
// reuse a pooled buffer instead of allocating per verification.
func (r *Request) appendSigPayload(w *wire.Buf) []byte {
	return w.Str("xp-req").Bytes(r.Op).U64(r.TS).I64(int64(r.Client)).Done()
}

// Digest returns the request digest D(req) (covers the signature so a
// request is bound to its authentication).
func (r *Request) Digest() crypto.Digest {
	if r.digestSet {
		return r.digest
	}
	w := wire.Get()
	r.digest = crypto.HashParts([]byte("xp-reqd"), r.appendSigPayload(w), r.Sig)
	wire.Put(w)
	r.digestSet = true
	return r.digest
}

// wireSize is the request's modeled on-the-wire contribution.
func (r *Request) wireSize() int { return len(r.Op) + 8 + 8 + len(r.Sig) + 8 }

// Batch is an ordered group of requests sharing one sequence number
// (Section 4.5: batching, B = 20).
type Batch struct {
	Reqs []Request

	// digest memoizes Digest; see Request.digest for the rationale and
	// the publication argument. Batches are immutable once proposed.
	digest    crypto.Digest
	digestSet bool
}

// Digest returns the batch digest: the hash of its requests' digests.
func (b *Batch) Digest() crypto.Digest {
	if b.digestSet {
		return b.digest
	}
	parts := make([][]byte, 0, len(b.Reqs)+1)
	parts = append(parts, []byte("xp-batch"))
	for i := range b.Reqs {
		d := b.Reqs[i].Digest()
		parts = append(parts, d[:])
	}
	b.digest = crypto.HashParts(parts...)
	b.digestSet = true
	return b.digest
}

func (b *Batch) wireSize() int {
	s := 4
	for i := range b.Reqs {
		s += b.Reqs[i].wireSize()
	}
	return s
}

// ReplyLeaf hashes one (client timestamp, reply digest) pair into a
// Merkle leaf.
func ReplyLeaf(ts uint64, repD crypto.Digest) crypto.Digest {
	return crypto.HashParts([]byte("xp-leaf"), wire.New(8).U64(ts).Done(), repD[:])
}

// ReplyLeaves builds the batch's reply leaves.
func ReplyLeaves(tss []uint64, repDigests []crypto.Digest) []crypto.Digest {
	leaves := make([]crypto.Digest, len(repDigests))
	for i := range repDigests {
		leaves[i] = ReplyLeaf(tss[i], repDigests[i])
	}
	return leaves
}

// ReplyRoot is the Merkle root over the batch's reply leaves: the
// t = 1 follower signs this root inside m1 so that each client can
// authenticate its own reply against the follower's signature with a
// log-size inclusion proof (Section 4.2.2), independent of batch size.
func ReplyRoot(tss []uint64, repDigests []crypto.Digest) crypto.Digest {
	return crypto.MerkleRoot(ReplyLeaves(tss, repDigests))
}

// ---------------------------------------------------------------------------
// Orders: prepare (t ≥ 2) and commit records
// ---------------------------------------------------------------------------

// OrderKind distinguishes prepare from commit records.
type OrderKind uint8

const (
	// KindPrepare marks ⟨prepare, D(req), sn, i⟩σ records (t ≥ 2
	// primaries).
	KindPrepare OrderKind = iota + 1
	// KindCommit marks ⟨commit, D(req), sn, i, …⟩σ records (followers;
	// and the t = 1 primary's m0).
	KindCommit
)

// Order is a signed ordering statement: either a prepare or a commit.
// For the t = 1 follower's m1, RepRoot carries the digest binding the
// batch's replies (zero otherwise).
type Order struct {
	Kind    OrderKind
	BatchD  crypto.Digest
	SN      smr.SeqNum
	View    smr.View
	From    smr.NodeID
	RepRoot crypto.Digest
	Sig     crypto.Signature
}

// SigPayload returns the signed bytes.
func (o *Order) SigPayload() []byte {
	return o.appendSigPayload(wire.New(96))
}

// appendSigPayload writes the signed bytes into w.
func (o *Order) appendSigPayload(w *wire.Buf) []byte {
	return w.Str("xp-order").U8(uint8(o.Kind)).Raw(o.BatchD[:]).
		U64(uint64(o.SN)).U64(uint64(o.View)).I64(int64(o.From)).Raw(o.RepRoot[:]).Done()
}

func (o *Order) wireSize() int { return 1 + 32 + 8 + 8 + 8 + 32 + len(o.Sig) }

// signOrder builds and signs an order record.
func signOrder(suite crypto.Suite, kind OrderKind, d crypto.Digest, sn smr.SeqNum, v smr.View, from smr.NodeID, repRoot crypto.Digest) Order {
	o := Order{Kind: kind, BatchD: d, SN: sn, View: v, From: from, RepRoot: repRoot}
	signOrderInto(suite, &o)
	return o
}

// signOrderInto fills o.Sig in place. The async signing paths build
// the unsigned order on the event loop and run only this call
// off-loop.
func signOrderInto(suite crypto.Suite, o *Order) {
	w := wire.Get()
	o.Sig = suite.Sign(crypto.NodeID(o.From), o.appendSigPayload(w))
	wire.Put(w)
}

// sameSigned reports whether o and p are the same signed bytes.
func (o *Order) sameSigned(p *Order) bool {
	return o.Kind == p.Kind && o.BatchD == p.BatchD && o.SN == p.SN && o.View == p.View &&
		o.From == p.From && o.RepRoot == p.RepRoot && string(o.Sig) == string(p.Sig)
}

// verifyOrder checks an order's signature.
func verifyOrder(suite crypto.Suite, o *Order) bool {
	w := wire.Get()
	ok := suite.Verify(crypto.NodeID(o.From), o.appendSigPayload(w), o.Sig)
	wire.Put(w)
	return ok
}

// ---------------------------------------------------------------------------
// Log entries
// ---------------------------------------------------------------------------

// PrepareEntry is PrepareLog[sn]: the batch plus the primary's signed
// order (a prepare for t ≥ 2, the m0 commit for t = 1).
type PrepareEntry struct {
	Batch   Batch
	Primary Order
}

// SN returns the entry's sequence number.
func (p *PrepareEntry) SN() smr.SeqNum { return p.Primary.SN }

// View returns the view in which the entry was prepared.
func (p *PrepareEntry) View() smr.View { return p.Primary.View }

func (p *PrepareEntry) wireSize() int { return p.Batch.wireSize() + p.Primary.wireSize() }

// CommitEntry is CommitLog[sn]: the batch, the primary's order and the
// t follower commits (one commit, m1, for t = 1).
type CommitEntry struct {
	Batch   Batch
	Primary Order
	Commits []Order
}

// SN returns the entry's sequence number.
func (c *CommitEntry) SN() smr.SeqNum { return c.Primary.SN }

// View returns the view in which the entry was committed.
func (c *CommitEntry) View() smr.View { return c.Primary.View }

func (c *CommitEntry) wireSize() int {
	s := c.Batch.wireSize() + c.Primary.wireSize()
	for i := range c.Commits {
		s += c.Commits[i].wireSize()
	}
	return s
}

// ---------------------------------------------------------------------------
// Common-case messages
// ---------------------------------------------------------------------------

// MsgReplicate carries a client request to the primary.
type MsgReplicate struct{ Req Request }

// Type implements smr.Message.
func (m *MsgReplicate) Type() string { return "replicate" }

// WireSize implements smr.Message.
func (m *MsgReplicate) WireSize() int { return msgHeader + m.Req.wireSize() }

// MsgResend is the client's retransmission broadcast (Algorithm 4).
type MsgResend struct{ Req Request }

// Type implements smr.Message.
func (m *MsgResend) Type() string { return "re-send" }

// WireSize implements smr.Message.
func (m *MsgResend) WireSize() int { return msgHeader + m.Req.wireSize() }

// MsgPrepare is the primary's ⟨req, prepare⟩ to followers (t ≥ 2), and
// the carrier of re-prepared entries inside new-view processing.
type MsgPrepare struct{ Entry PrepareEntry }

// Type implements smr.Message.
func (m *MsgPrepare) Type() string { return "prepare" }

// WireSize implements smr.Message.
func (m *MsgPrepare) WireSize() int { return msgHeader + m.Entry.wireSize() }

// MsgCommitReq is the t = 1 primary's ⟨req, m0⟩ to the follower.
type MsgCommitReq struct{ Entry PrepareEntry }

// Type implements smr.Message.
func (m *MsgCommitReq) Type() string { return "commit-req" }

// WireSize implements smr.Message.
func (m *MsgCommitReq) WireSize() int { return msgHeader + m.Entry.wireSize() }

// MsgCommit carries a follower's signed commit order.
type MsgCommit struct{ Order Order }

// Type implements smr.Message.
func (m *MsgCommit) Type() string { return "commit" }

// WireSize implements smr.Message.
func (m *MsgCommit) WireSize() int { return msgHeader + m.Order.wireSize() }

// MsgReply is an active replica's reply to a client. The primary sends
// the full reply; for t = 1 it attaches the follower's m1 and the
// batch's reply digests so the client can verify the follower's
// signature (Section 4.2.2). MACs authenticate the channel.
type MsgReply struct {
	From smr.NodeID
	SN   smr.SeqNum
	View smr.View
	TS   uint64
	Rep  []byte
	// Proof is the Merkle inclusion proof of this reply under the
	// follower's signed RepRoot (t = 1 only).
	Proof crypto.MerkleProof
	// FollowerCommit is m1 (t = 1 only).
	FollowerCommit *Order
	MAC            crypto.MAC
}

// MACPayload returns the authenticated bytes.
func (m *MsgReply) MACPayload() []byte {
	w := wire.New(64 + len(m.Rep)).Str("xp-reply").I64(int64(m.From)).
		U64(uint64(m.SN)).U64(uint64(m.View)).U64(m.TS).Bytes(m.Rep)
	for i := range m.Proof.Siblings {
		w.Raw(m.Proof.Siblings[i][:]).Bool(m.Proof.Lefts[i])
	}
	return w.Done()
}

// Type implements smr.Message.
func (m *MsgReply) Type() string { return "reply" }

// WireSize implements smr.Message.
func (m *MsgReply) WireSize() int {
	s := msgHeader + 8 + 8 + 8 + 8 + len(m.Rep) + len(m.MAC) + m.Proof.Size()
	if m.FollowerCommit != nil {
		s += m.FollowerCommit.wireSize()
	}
	return s
}

// MsgReplyDigest is a follower's digest-only reply (t ≥ 2).
type MsgReplyDigest struct {
	From      smr.NodeID
	SN        smr.SeqNum
	View      smr.View
	TS        uint64
	RepDigest crypto.Digest
	MAC       crypto.MAC
}

// MACPayload returns the authenticated bytes.
func (m *MsgReplyDigest) MACPayload() []byte {
	return wire.New(80).Str("xp-replyd").I64(int64(m.From)).
		U64(uint64(m.SN)).U64(uint64(m.View)).U64(m.TS).Raw(m.RepDigest[:]).Done()
}

// Type implements smr.Message.
func (m *MsgReplyDigest) Type() string { return "reply-digest" }

// WireSize implements smr.Message.
func (m *MsgReplyDigest) WireSize() int { return msgHeader + 8 + 8 + 8 + 8 + 32 + len(m.MAC) }

// ---------------------------------------------------------------------------
// Retransmission messages (Algorithm 4)
// ---------------------------------------------------------------------------

// ReplySig is an active replica's *signed* reply record, produced on
// the retransmission path where MACs do not suffice.
type ReplySig struct {
	From      smr.NodeID
	SN        smr.SeqNum
	View      smr.View
	TS        uint64
	Client    smr.NodeID
	RepDigest crypto.Digest
	Sig       crypto.Signature
}

// SigPayload returns the signed bytes.
func (r *ReplySig) SigPayload() []byte {
	return wire.New(96).Str("xp-rsig").I64(int64(r.From)).U64(uint64(r.SN)).
		U64(uint64(r.View)).U64(r.TS).I64(int64(r.Client)).Raw(r.RepDigest[:]).Done()
}

func (r *ReplySig) wireSize() int { return 8*5 + 32 + len(r.Sig) }

// MsgReplySign is exchanged among active replicas to assemble t+1
// signed replies for a retransmitted request.
type MsgReplySign struct{ R ReplySig }

// Type implements smr.Message.
func (m *MsgReplySign) Type() string { return "reply-sign" }

// WireSize implements smr.Message.
func (m *MsgReplySign) WireSize() int { return msgHeader + m.R.wireSize() }

// MsgSignedReply delivers t+1 matching signed replies, plus the full
// reply payload, to a retransmitting client.
type MsgSignedReply struct {
	Rep     []byte
	Replies []ReplySig
}

// Type implements smr.Message.
func (m *MsgSignedReply) Type() string { return "signed-reply" }

// WireSize implements smr.Message.
func (m *MsgSignedReply) WireSize() int {
	s := msgHeader + len(m.Rep)
	for i := range m.Replies {
		s += m.Replies[i].wireSize()
	}
	return s
}

// ---------------------------------------------------------------------------
// View-change messages (Algorithm 3, Figure 3)
// ---------------------------------------------------------------------------

// MsgSuspect initiates a view change: ⟨suspect, i, s_j⟩σ.
type MsgSuspect struct {
	View smr.View
	From smr.NodeID
	Sig  crypto.Signature
}

// SigPayload returns the signed bytes.
func (m *MsgSuspect) SigPayload() []byte {
	return wire.New(32).Str("xp-suspect").U64(uint64(m.View)).I64(int64(m.From)).Done()
}

// Type implements smr.Message.
func (m *MsgSuspect) Type() string { return "suspect" }

// WireSize implements smr.Message.
func (m *MsgSuspect) WireSize() int { return msgHeader + 8 + 8 + len(m.Sig) }

// MsgViewInstalled is the new primary's notice to a client that View
// is installed and taking requests: the client points its view guess
// there and re-sends what it has pending, instead of waiting out a
// request timeout aimed at a primary that is gone. It carries no
// authority — a wrong guess costs the client a timeout, as it always
// has — so a MAC under the pairwise key suffices.
type MsgViewInstalled struct {
	View smr.View
	From smr.NodeID
	MAC  crypto.MAC
}

// MACPayload returns the authenticated bytes.
func (m *MsgViewInstalled) MACPayload() []byte {
	return wire.New(32).Str("xp-installed").U64(uint64(m.View)).I64(int64(m.From)).Done()
}

// Type implements smr.Message.
func (m *MsgViewInstalled) Type() string { return "view-installed" }

// WireSize implements smr.Message.
func (m *MsgViewInstalled) WireSize() int { return msgHeader + 8 + 8 + len(m.MAC) }

// CheckpointProof is a stable checkpoint: sequence number, state
// digest and t+1 signed chkpt records (Section 4.5.1).
type CheckpointProof struct {
	SN     smr.SeqNum
	StateD crypto.Digest
	Proof  []ChkptRecord
}

func (c *CheckpointProof) wireSize() int {
	s := 8 + 32
	for i := range c.Proof {
		s += c.Proof[i].wireSize()
	}
	return s
}

// ChkptRecord is one replica's signed checkpoint statement.
type ChkptRecord struct {
	SN     smr.SeqNum
	View   smr.View
	StateD crypto.Digest
	From   smr.NodeID
	Sig    crypto.Signature
}

// SigPayload returns the signed bytes.
func (c *ChkptRecord) SigPayload() []byte {
	return wire.New(80).Str("xp-chkpt").U64(uint64(c.SN)).U64(uint64(c.View)).
		Raw(c.StateD[:]).I64(int64(c.From)).Done()
}

func (c *ChkptRecord) wireSize() int { return 8 + 8 + 32 + 8 + len(c.Sig) }

// MsgViewChange is ⟨view-change, i+1, s_j, CommitLog⟩σ; with FD it also
// carries the prepare log, the view it was generated in (pre_sj) and
// the final proof of that view's view change (Algorithm 5).
type MsgViewChange struct {
	NewView smr.View
	From    smr.NodeID
	// Checkpoint state transfer: the sender's stable checkpoint and
	// application snapshot at that checkpoint.
	Checkpoint CheckpointProof
	Snapshot   []byte
	CommitLog  []CommitEntry
	// FD fields.
	PrepareLog []PrepareEntry
	PreView    smr.View
	FinalProof []MsgVCConfirm
	Sig        crypto.Signature
}

// contentDigest summarizes the message for signing: the carried log
// entries authenticate themselves via their inner signatures, so the
// outer signature binds sender, target view and a digest of the claim.
func (m *MsgViewChange) contentDigest() crypto.Digest {
	w := wire.New(256).Str("xp-vc").U64(uint64(m.NewView)).I64(int64(m.From)).
		U64(uint64(m.Checkpoint.SN)).Raw(m.Checkpoint.StateD[:]).U64(uint64(m.PreView))
	for i := range m.CommitLog {
		e := &m.CommitLog[i]
		d := e.Batch.Digest()
		w.U64(uint64(e.SN())).U64(uint64(e.View())).Raw(d[:])
	}
	w.U8(0xfe)
	for i := range m.PrepareLog {
		e := &m.PrepareLog[i]
		d := e.Batch.Digest()
		w.U64(uint64(e.SN())).U64(uint64(e.View())).Raw(d[:])
	}
	return crypto.Hash(w.Done())
}

// SigPayload returns the signed bytes.
func (m *MsgViewChange) SigPayload() []byte {
	d := m.contentDigest()
	return d[:]
}

// Type implements smr.Message.
func (m *MsgViewChange) Type() string { return "view-change" }

// WireSize implements smr.Message.
func (m *MsgViewChange) WireSize() int {
	s := msgHeader + 8 + 8 + m.Checkpoint.wireSize() + len(m.Snapshot) + len(m.Sig) + 8
	for i := range m.CommitLog {
		s += m.CommitLog[i].wireSize()
	}
	for i := range m.PrepareLog {
		s += m.PrepareLog[i].wireSize()
	}
	for i := range m.FinalProof {
		s += m.FinalProof[i].WireSize()
	}
	return s
}

// MsgVCFinal is ⟨vc-final, i+1, s_j, VCSet⟩σ.
type MsgVCFinal struct {
	NewView smr.View
	From    smr.NodeID
	VCSet   []*MsgViewChange
	Sig     crypto.Signature
}

// SigPayload returns the signed bytes: a digest over the set of
// view-change message digests carried.
func (m *MsgVCFinal) SigPayload() []byte {
	w := wire.New(64 + 32*len(m.VCSet)).Str("xp-vcfinal").U64(uint64(m.NewView)).I64(int64(m.From))
	for _, vc := range m.VCSet {
		d := vc.contentDigest()
		w.Raw(d[:])
	}
	d := crypto.Hash(w.Done())
	return d[:]
}

// Type implements smr.Message.
func (m *MsgVCFinal) Type() string { return "vc-final" }

// WireSize implements smr.Message.
func (m *MsgVCFinal) WireSize() int {
	s := msgHeader + 8 + 8 + len(m.Sig)
	for _, vc := range m.VCSet {
		if vc != nil {
			s += vc.WireSize()
		}
	}
	return s
}

// MsgVCConfirm is the FD confirmation ⟨vc-confirm, i+1, D(VCSet)⟩σ
// (Algorithm 5, Figure 13).
type MsgVCConfirm struct {
	NewView smr.View
	From    smr.NodeID
	VCSetD  crypto.Digest
	Sig     crypto.Signature
}

// SigPayload returns the signed bytes.
func (m *MsgVCConfirm) SigPayload() []byte {
	return wire.New(64).Str("xp-vcconf").U64(uint64(m.NewView)).I64(int64(m.From)).Raw(m.VCSetD[:]).Done()
}

// Type implements smr.Message.
func (m *MsgVCConfirm) Type() string { return "vc-confirm" }

// WireSize implements smr.Message.
func (m *MsgVCConfirm) WireSize() int { return msgHeader + 8 + 8 + 32 + len(m.Sig) }

// MsgNewView is ⟨new-view, i+1, PrepareLog⟩σ from the new primary.
type MsgNewView struct {
	NewView  smr.View
	From     smr.NodeID
	Prepares []PrepareEntry
	Sig      crypto.Signature
}

// SigPayload returns the signed bytes.
func (m *MsgNewView) SigPayload() []byte {
	w := wire.New(64 + 48*len(m.Prepares)).Str("xp-newview").U64(uint64(m.NewView)).I64(int64(m.From))
	for i := range m.Prepares {
		e := &m.Prepares[i]
		d := e.Batch.Digest()
		w.U64(uint64(e.SN())).Raw(d[:])
	}
	d := crypto.Hash(w.Done())
	return d[:]
}

// Type implements smr.Message.
func (m *MsgNewView) Type() string { return "new-view" }

// WireSize implements smr.Message.
func (m *MsgNewView) WireSize() int {
	s := msgHeader + 8 + 8 + len(m.Sig)
	for i := range m.Prepares {
		s += m.Prepares[i].wireSize()
	}
	return s
}

// ---------------------------------------------------------------------------
// Checkpointing and lazy replication (Section 4.5, Figures 4–5)
// ---------------------------------------------------------------------------

// MsgPrechk is the MAC-authenticated pre-checkpoint vote.
type MsgPrechk struct {
	SN     smr.SeqNum
	View   smr.View
	StateD crypto.Digest
	From   smr.NodeID
	MAC    crypto.MAC
}

// MACPayload returns the authenticated bytes.
func (m *MsgPrechk) MACPayload() []byte {
	return wire.New(80).Str("xp-prechk").U64(uint64(m.SN)).U64(uint64(m.View)).
		Raw(m.StateD[:]).I64(int64(m.From)).Done()
}

// Type implements smr.Message.
func (m *MsgPrechk) Type() string { return "prechk" }

// WireSize implements smr.Message.
func (m *MsgPrechk) WireSize() int { return msgHeader + 8 + 8 + 32 + 8 + len(m.MAC) }

// MsgChkpt carries a signed checkpoint record.
type MsgChkpt struct{ Rec ChkptRecord }

// Type implements smr.Message.
func (m *MsgChkpt) Type() string { return "chkpt" }

// WireSize implements smr.Message.
func (m *MsgChkpt) WireSize() int { return msgHeader + m.Rec.wireSize() }

// MsgLazyChk propagates a stable checkpoint proof to passive replicas.
type MsgLazyChk struct{ Proof CheckpointProof }

// Type implements smr.Message.
func (m *MsgLazyChk) Type() string { return "lazychk" }

// WireSize implements smr.Message.
func (m *MsgLazyChk) WireSize() int { return msgHeader + m.Proof.wireSize() }

// Bulk implements smr.BulkMessage: checkpoint propagation to passive
// replicas is background traffic the transport may shed first.
func (m *MsgLazyChk) Bulk() bool { return true }

// MsgLazyCommit lazily replicates one commit-log entry to a passive
// replica (Section 4.5.2).
type MsgLazyCommit struct{ Entry CommitEntry }

// Type implements smr.Message.
func (m *MsgLazyCommit) Type() string { return "lazy-commit" }

// WireSize implements smr.Message.
func (m *MsgLazyCommit) WireSize() int { return msgHeader + m.Entry.wireSize() }

// Bulk implements smr.BulkMessage: lazy replication is best-effort
// background traffic (Section 4.5.2) — passive replicas recover any
// shed entry from the next checkpoint — so a bounded send queue sheds
// it before protocol-critical messages.
func (m *MsgLazyCommit) Bulk() bool { return true }

// ---------------------------------------------------------------------------
// Fault-detection proof messages (Algorithm 6)
// ---------------------------------------------------------------------------

// MsgFaultProof broadcasts evidence that Culprit exhibited a fault of
// the given kind ("state-loss", "fork-i", "fork-ii") at sequence
// number SN during the view change to View. Evidence carries the two
// conflicting view-change messages.
type MsgFaultProof struct {
	Kind    string
	View    smr.View
	Culprit smr.NodeID
	SN      smr.SeqNum
	// EvidenceA is the culprit's own view-change message; EvidenceB the
	// contradicting one.
	EvidenceA, EvidenceB *MsgViewChange
}

// Type implements smr.Message.
func (m *MsgFaultProof) Type() string { return "fault-proof" }

// WireSize implements smr.Message.
func (m *MsgFaultProof) WireSize() int {
	s := msgHeader + 16 + 16 + len(m.Kind)
	if m.EvidenceA != nil {
		s += m.EvidenceA.WireSize()
	}
	if m.EvidenceB != nil {
		s += m.EvidenceB.WireSize()
	}
	return s
}

// MsgForkIIQuery asks members of an old synchronous group to check a
// suspicious prepare log against their stored view-change agreement
// (Algorithm 6 lines 9–11).
type MsgForkIIQuery struct {
	View     smr.View // view change in which the suspicion arose
	OldView  smr.View // view whose final proof is questioned
	Culprit  smr.NodeID
	SN       smr.SeqNum
	Evidence *MsgViewChange
}

// Type implements smr.Message.
func (m *MsgForkIIQuery) Type() string { return "fork-ii-query" }

// WireSize implements smr.Message.
func (m *MsgForkIIQuery) WireSize() int {
	s := msgHeader + 32
	if m.Evidence != nil {
		s += m.Evidence.WireSize()
	}
	return s
}
