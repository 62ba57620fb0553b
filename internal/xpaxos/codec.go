package xpaxos

// Wire codec for XPaxos messages: a one-byte message-type tag followed
// by the message's fields in fixed order. Every wire type is written
// down once, as a field list (a `code` method over wire.Coder) that
// both encodes and decodes it; the tag table below binds each tag to
// its message's field list, and the write-ahead log records in
// durability.go go through the same lists. The encoding carries no
// type descriptors, uses no reflection, and is canonical: every valid
// byte string decodes to exactly one message, which re-encodes to the
// same bytes (the fuzz target asserts this). Decoded byte-slice fields
// alias the input buffer, so callers must hand DecodeMessage a buffer
// they will not reuse.
//
// Not derived from the field lists, on purpose: the modelled WireSize
// methods (simulated network timing depends on them) and every
// SigPayload, MACPayload and Digest (signed bytes stay independent of
// the transport layout).

import (
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// Message-type tags. The tag is the first byte of every encoded
// message; values are part of the wire format and must not be
// renumbered.
const (
	tagReplicate byte = iota + 1
	tagResend
	tagPrepare
	tagCommitReq
	tagCommit
	tagReply
	tagReplyDigest
	tagReplySign
	tagSignedReply
	tagSuspect
	tagViewChange
	tagVCFinal
	tagVCConfirm
	tagNewView
	tagPrechk
	tagChkpt
	tagLazyChk
	tagLazyCommit
	tagFaultProof
	tagForkIIQuery
	tagViewInstalled
)

// ErrBadMessage reports an encoding that is truncated, malformed, or
// carries trailing bytes.
var ErrBadMessage = wire.ErrBadMessage

// CodecName is the registry name of the XPaxos wire codec.
const CodecName = "xpaxos"

// codec is the tag table: one row per message, registered with
// internal/wire under CodecName. A message that is one shared structure
// and nothing else has that structure's field list as its own.
var codec = wire.NewCodec(CodecName,
	wire.Row(tagReplicate, func(m *MsgReplicate, c *wire.Coder) { m.Req.code(c) }),
	wire.Row(tagResend, func(m *MsgResend, c *wire.Coder) { m.Req.code(c) }),
	wire.Row(tagPrepare, func(m *MsgPrepare, c *wire.Coder) { m.Entry.code(c) }),
	wire.Row(tagCommitReq, func(m *MsgCommitReq, c *wire.Coder) { m.Entry.code(c) }),
	wire.Row(tagCommit, func(m *MsgCommit, c *wire.Coder) { m.Order.code(c) }),
	wire.Row(tagReply, (*MsgReply).code),
	wire.Row(tagReplyDigest, (*MsgReplyDigest).code),
	wire.Row(tagReplySign, func(m *MsgReplySign, c *wire.Coder) { m.R.code(c) }),
	wire.Row(tagSignedReply, (*MsgSignedReply).code),
	wire.Row(tagSuspect, (*MsgSuspect).code),
	wire.Row(tagViewChange, (*MsgViewChange).code),
	wire.Row(tagVCFinal, (*MsgVCFinal).code),
	wire.Row(tagVCConfirm, (*MsgVCConfirm).code),
	wire.Row(tagNewView, (*MsgNewView).code),
	wire.Row(tagPrechk, (*MsgPrechk).code),
	wire.Row(tagChkpt, func(m *MsgChkpt, c *wire.Coder) { m.Rec.code(c) }),
	wire.Row(tagLazyChk, func(m *MsgLazyChk, c *wire.Coder) { m.Proof.code(c) }),
	wire.Row(tagLazyCommit, func(m *MsgLazyCommit, c *wire.Coder) { m.Entry.code(c) }),
	wire.Row(tagFaultProof, (*MsgFaultProof).code),
	wire.Row(tagForkIIQuery, (*MsgForkIIQuery).code),
	wire.Row(tagViewInstalled, (*MsgViewInstalled).code),
)

// AppendMessage appends m's wire encoding (tag byte + fields) to w. It
// errors on message types outside the tag table.
func AppendMessage(w *wire.Buf, m smr.Message) error { return codec.Append(w, m) }

// MarshalMessage encodes m into a fresh buffer.
func MarshalMessage(m smr.Message) ([]byte, error) { return codec.Marshal(m) }

// DecodeMessage parses one encoded message. Byte-slice fields of the
// result alias b; the caller must not reuse the buffer. Trailing bytes
// are rejected so the encoding stays canonical.
func DecodeMessage(b []byte) (smr.Message, error) { return codec.Decode(b) }

// Minimum encoded sizes per element, used to sanity-check slice counts
// before allocating: a hostile count fails fast instead of provoking a
// huge allocation.
const (
	digestWire    = crypto.DigestSize
	reqMinWire    = 4 + 8 + 8 + 4                               // Op len, TS, Client, Sig len
	orderMinWire  = 1 + digestWire + 8 + 8 + 8 + digestWire + 4 // Kind..RepRoot, Sig len
	prepMinWire   = 4 + orderMinWire                            // batch count + primary
	commitMinWire = prepMinWire + 4                             // + commits count
	chkRecMinWire = 8 + 8 + digestWire + 8 + 4
	cpMinWire     = 8 + digestWire + 4
	rsigMinWire   = 5*8 + digestWire + 4
	leafMinWire   = digestWire + 1 // Merkle sibling + direction byte
	vcConfMinWire = 8 + 8 + digestWire + 4
	vcMinWire     = 8 + 8 + cpMinWire + 4 + 4 + 4 + 8 + 4 + 4
)

// ---------------------------------------------------------------------------
// Shared sub-structures
// ---------------------------------------------------------------------------

func (r *Request) code(c *wire.Coder) {
	wire.Bytes(c, &r.Op)
	wire.U64(c, &r.TS)
	wire.I64(c, &r.Client)
	wire.Bytes(c, &r.Sig)
}

func (b *Batch) code(c *wire.Coder) {
	wire.Slice(c, &b.Reqs, reqMinWire, (*Request).code)
}

func (o *Order) code(c *wire.Coder) {
	wire.U8(c, &o.Kind)
	c.Raw(o.BatchD[:])
	wire.U64(c, &o.SN)
	wire.U64(c, &o.View)
	wire.I64(c, &o.From)
	c.Raw(o.RepRoot[:])
	wire.Bytes(c, &o.Sig)
}

func (p *PrepareEntry) code(c *wire.Coder) {
	p.Batch.code(c)
	p.Primary.code(c)
}

func (e *CommitEntry) code(c *wire.Coder) {
	e.Batch.code(c)
	e.Primary.code(c)
	wire.Slice(c, &e.Commits, orderMinWire, (*Order).code)
}

func (r *ChkptRecord) code(c *wire.Coder) {
	wire.U64(c, &r.SN)
	wire.U64(c, &r.View)
	c.Raw(r.StateD[:])
	wire.I64(c, &r.From)
	wire.Bytes(c, &r.Sig)
}

func (p *CheckpointProof) code(c *wire.Coder) {
	wire.U64(c, &p.SN)
	c.Raw(p.StateD[:])
	wire.Slice(c, &p.Proof, chkRecMinWire, (*ChkptRecord).code)
}

func (r *ReplySig) code(c *wire.Coder) {
	wire.I64(c, &r.From)
	wire.U64(c, &r.SN)
	wire.U64(c, &r.View)
	wire.U64(c, &r.TS)
	wire.I64(c, &r.Client)
	c.Raw(r.RepDigest[:])
	wire.Bytes(c, &r.Sig)
}

// codeMerkleProof codes the proof's two parallel slices as one counted
// list of (sibling, direction) pairs.
func codeMerkleProof(c *wire.Coder, p *crypto.MerkleProof) {
	n := c.Count(len(p.Siblings), leafMinWire)
	if c.Decoding() && n > 0 {
		p.Siblings = make([]crypto.Digest, n)
		p.Lefts = make([]bool, n)
	}
	for i := 0; i < n && c.OK(); i++ {
		c.Raw(p.Siblings[i][:])
		c.Bool(&p.Lefts[i])
	}
}

// ---------------------------------------------------------------------------
// Messages that are more than one shared structure
// ---------------------------------------------------------------------------

func (m *MsgReply) code(c *wire.Coder) {
	wire.I64(c, &m.From)
	wire.U64(c, &m.SN)
	wire.U64(c, &m.View)
	wire.U64(c, &m.TS)
	wire.Bytes(c, &m.Rep)
	codeMerkleProof(c, &m.Proof)
	wire.Opt(c, &m.FollowerCommit, (*Order).code)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgReplyDigest) code(c *wire.Coder) {
	wire.I64(c, &m.From)
	wire.U64(c, &m.SN)
	wire.U64(c, &m.View)
	wire.U64(c, &m.TS)
	c.Raw(m.RepDigest[:])
	wire.Bytes(c, &m.MAC)
}

func (m *MsgSignedReply) code(c *wire.Coder) {
	wire.Bytes(c, &m.Rep)
	wire.Slice(c, &m.Replies, rsigMinWire, (*ReplySig).code)
}

func (m *MsgSuspect) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.I64(c, &m.From)
	wire.Bytes(c, &m.Sig)
}

func (m *MsgViewInstalled) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.I64(c, &m.From)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgViewChange) code(c *wire.Coder) {
	wire.U64(c, &m.NewView)
	wire.I64(c, &m.From)
	m.Checkpoint.code(c)
	wire.Bytes(c, &m.Snapshot)
	wire.Slice(c, &m.CommitLog, commitMinWire, (*CommitEntry).code)
	wire.Slice(c, &m.PrepareLog, prepMinWire, (*PrepareEntry).code)
	wire.U64(c, &m.PreView)
	wire.Slice(c, &m.FinalProof, vcConfMinWire, (*MsgVCConfirm).code)
	wire.Bytes(c, &m.Sig)
}

func (m *MsgVCFinal) code(c *wire.Coder) {
	wire.U64(c, &m.NewView)
	wire.I64(c, &m.From)
	wire.Slice(c, &m.VCSet, vcMinWire, codeVCSetEntry)
	wire.Bytes(c, &m.Sig)
}

// codeVCSetEntry codes one VCSet entry, without a presence byte: the
// protocol never assembles a VCSet with nil entries, so nil is
// unrepresentable on the wire — encoding one fails, and a decoded
// hostile frame cannot smuggle a nil into the view-change handlers'
// dereferences.
func codeVCSetEntry(vc **MsgViewChange, c *wire.Coder) {
	if c.Decoding() {
		*vc = new(MsgViewChange)
	} else if *vc == nil {
		c.Fail()
		return
	}
	(*vc).code(c)
}

func (m *MsgVCConfirm) code(c *wire.Coder) {
	wire.U64(c, &m.NewView)
	wire.I64(c, &m.From)
	c.Raw(m.VCSetD[:])
	wire.Bytes(c, &m.Sig)
}

func (m *MsgNewView) code(c *wire.Coder) {
	wire.U64(c, &m.NewView)
	wire.I64(c, &m.From)
	wire.Slice(c, &m.Prepares, prepMinWire, (*PrepareEntry).code)
	wire.Bytes(c, &m.Sig)
}

func (m *MsgPrechk) code(c *wire.Coder) {
	wire.U64(c, &m.SN)
	wire.U64(c, &m.View)
	c.Raw(m.StateD[:])
	wire.I64(c, &m.From)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgFaultProof) code(c *wire.Coder) {
	c.Str(&m.Kind)
	wire.U64(c, &m.View)
	wire.I64(c, &m.Culprit)
	wire.U64(c, &m.SN)
	wire.Opt(c, &m.EvidenceA, (*MsgViewChange).code)
	wire.Opt(c, &m.EvidenceB, (*MsgViewChange).code)
}

func (m *MsgForkIIQuery) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.U64(c, &m.OldView)
	wire.I64(c, &m.Culprit)
	wire.U64(c, &m.SN)
	wire.Opt(c, &m.Evidence, (*MsgViewChange).code)
}
