package xpaxos

// Wire codec for XPaxos messages: a one-byte message-type tag followed
// by explicit fixed-order field encodings over internal/wire. Unlike
// the gob envelope it replaces, the codec carries no type descriptors,
// uses no reflection, and produces a canonical encoding: every valid
// byte string decodes to exactly one message, which re-encodes to the
// same bytes (the fuzz target asserts this). Decoded byte-slice fields
// alias the input buffer, so callers must hand DecodeMessage a buffer
// they will not reuse.

import (
	"errors"
	"fmt"

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
var ErrBadMessage = errors.New("xpaxos: malformed message encoding")

// CodecName is the registry name of the XPaxos wire codec.
const CodecName = "xpaxos"

func init() {
	wire.Register(wire.Codec{Name: CodecName, Append: AppendMessage, Decode: DecodeMessage})
}

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

// readCount reads a u32 element count and bounds it by the remaining
// input given each element's minimum encoded size.
func readCount(rd *wire.Reader, minElem int) (int, bool) {
	n, ok := rd.U32()
	if !ok || int64(n)*int64(minElem) > int64(rd.Remaining()) {
		return 0, false
	}
	return int(n), true
}

// readDigest reads a fixed-size digest.
func readDigest(rd *wire.Reader, d *crypto.Digest) bool {
	p, ok := rd.Raw(crypto.DigestSize)
	if ok {
		copy(d[:], p)
	}
	return ok
}

// encodeSlice appends a u32 count followed by each element's encoding.
func encodeSlice[T any](w *wire.Buf, es []T, enc func(*T, *wire.Buf)) {
	w.U32(uint32(len(es)))
	for i := range es {
		enc(&es[i], w)
	}
}

// decodeSlice reads a u32 count (bounded against the remaining input
// via readCount) and decodes that many elements. A zero count yields a
// nil slice, keeping the encoding canonical.
func decodeSlice[T any](rd *wire.Reader, minElem int, dec func(*T, *wire.Reader) bool) ([]T, bool) {
	n, ok := readCount(rd, minElem)
	if !ok {
		return nil, false
	}
	var es []T
	if n > 0 {
		es = make([]T, n)
	}
	for i := range es {
		if !dec(&es[i], rd) {
			return nil, false
		}
	}
	return es, true
}

// ---------------------------------------------------------------------------
// Shared sub-structures
// ---------------------------------------------------------------------------

func (r *Request) marshalWire(w *wire.Buf) {
	w.Bytes(r.Op).U64(r.TS).I64(int64(r.Client)).Bytes(r.Sig)
}

func (r *Request) unmarshalWire(rd *wire.Reader) bool {
	op, ok1 := rd.Bytes()
	ts, ok2 := rd.U64()
	cl, ok3 := rd.I64()
	sig, ok4 := rd.Bytes()
	if !(ok1 && ok2 && ok3 && ok4) {
		return false
	}
	r.Op, r.TS, r.Client, r.Sig = op, ts, smr.NodeID(cl), crypto.Signature(sig)
	return true
}

func (b *Batch) marshalWire(w *wire.Buf) {
	encodeSlice(w, b.Reqs, (*Request).marshalWire)
}

func (b *Batch) unmarshalWire(rd *wire.Reader) bool {
	var ok bool
	b.Reqs, ok = decodeSlice(rd, reqMinWire, (*Request).unmarshalWire)
	return ok
}

func (o *Order) marshalWire(w *wire.Buf) {
	w.U8(uint8(o.Kind)).Raw(o.BatchD[:]).U64(uint64(o.SN)).U64(uint64(o.View)).
		I64(int64(o.From)).Raw(o.RepRoot[:]).Bytes(o.Sig)
}

func (o *Order) unmarshalWire(rd *wire.Reader) bool {
	kind, ok := rd.U8()
	if !ok || !readDigest(rd, &o.BatchD) {
		return false
	}
	sn, ok1 := rd.U64()
	view, ok2 := rd.U64()
	from, ok3 := rd.I64()
	if !(ok1 && ok2 && ok3) || !readDigest(rd, &o.RepRoot) {
		return false
	}
	sig, ok4 := rd.Bytes()
	if !ok4 {
		return false
	}
	o.Kind, o.SN, o.View, o.From, o.Sig =
		OrderKind(kind), smr.SeqNum(sn), smr.View(view), smr.NodeID(from), crypto.Signature(sig)
	return true
}

func (p *PrepareEntry) marshalWire(w *wire.Buf) {
	p.Batch.marshalWire(w)
	p.Primary.marshalWire(w)
}

func (p *PrepareEntry) unmarshalWire(rd *wire.Reader) bool {
	return p.Batch.unmarshalWire(rd) && p.Primary.unmarshalWire(rd)
}

func (c *CommitEntry) marshalWire(w *wire.Buf) {
	c.Batch.marshalWire(w)
	c.Primary.marshalWire(w)
	encodeSlice(w, c.Commits, (*Order).marshalWire)
}

func (c *CommitEntry) unmarshalWire(rd *wire.Reader) bool {
	if !c.Batch.unmarshalWire(rd) || !c.Primary.unmarshalWire(rd) {
		return false
	}
	var ok bool
	c.Commits, ok = decodeSlice(rd, orderMinWire, (*Order).unmarshalWire)
	return ok
}

func (c *ChkptRecord) marshalWire(w *wire.Buf) {
	w.U64(uint64(c.SN)).U64(uint64(c.View)).Raw(c.StateD[:]).I64(int64(c.From)).Bytes(c.Sig)
}

func (c *ChkptRecord) unmarshalWire(rd *wire.Reader) bool {
	sn, ok1 := rd.U64()
	view, ok2 := rd.U64()
	if !(ok1 && ok2) || !readDigest(rd, &c.StateD) {
		return false
	}
	from, ok3 := rd.I64()
	sig, ok4 := rd.Bytes()
	if !(ok3 && ok4) {
		return false
	}
	c.SN, c.View, c.From, c.Sig = smr.SeqNum(sn), smr.View(view), smr.NodeID(from), crypto.Signature(sig)
	return true
}

func (c *CheckpointProof) marshalWire(w *wire.Buf) {
	w.U64(uint64(c.SN)).Raw(c.StateD[:])
	encodeSlice(w, c.Proof, (*ChkptRecord).marshalWire)
}

func (c *CheckpointProof) unmarshalWire(rd *wire.Reader) bool {
	sn, ok := rd.U64()
	if !ok || !readDigest(rd, &c.StateD) {
		return false
	}
	c.SN = smr.SeqNum(sn)
	c.Proof, ok = decodeSlice(rd, chkRecMinWire, (*ChkptRecord).unmarshalWire)
	return ok
}

func (r *ReplySig) marshalWire(w *wire.Buf) {
	w.I64(int64(r.From)).U64(uint64(r.SN)).U64(uint64(r.View)).U64(r.TS).
		I64(int64(r.Client)).Raw(r.RepDigest[:]).Bytes(r.Sig)
}

func (r *ReplySig) unmarshalWire(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	sn, ok2 := rd.U64()
	view, ok3 := rd.U64()
	ts, ok4 := rd.U64()
	cl, ok5 := rd.I64()
	if !(ok1 && ok2 && ok3 && ok4 && ok5) || !readDigest(rd, &r.RepDigest) {
		return false
	}
	sig, ok6 := rd.Bytes()
	if !ok6 {
		return false
	}
	r.From, r.SN, r.View, r.TS, r.Client, r.Sig =
		smr.NodeID(from), smr.SeqNum(sn), smr.View(view), ts, smr.NodeID(cl), crypto.Signature(sig)
	return true
}

func marshalMerkleProof(w *wire.Buf, p *crypto.MerkleProof) {
	w.U32(uint32(len(p.Siblings)))
	for i := range p.Siblings {
		w.Raw(p.Siblings[i][:]).Bool(p.Lefts[i])
	}
}

func unmarshalMerkleProof(rd *wire.Reader, p *crypto.MerkleProof) bool {
	n, ok := readCount(rd, leafMinWire)
	if !ok {
		return false
	}
	if n > 0 {
		p.Siblings = make([]crypto.Digest, n)
		p.Lefts = make([]bool, n)
	}
	for i := range p.Siblings {
		if !readDigest(rd, &p.Siblings[i]) {
			return false
		}
		if p.Lefts[i], ok = rd.Bool(); !ok {
			return false
		}
	}
	return true
}

// marshalOptVC encodes an optional view-change message with a presence
// byte.
func marshalOptVC(w *wire.Buf, vc *MsgViewChange) {
	if vc == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	vc.marshalBody(w)
}

func unmarshalOptVC(rd *wire.Reader) (*MsgViewChange, bool) {
	present, ok := rd.Bool()
	if !ok {
		return nil, false
	}
	if !present {
		return nil, true
	}
	vc := new(MsgViewChange)
	if !vc.unmarshalBody(rd) {
		return nil, false
	}
	return vc, true
}

// ---------------------------------------------------------------------------
// Message bodies
// ---------------------------------------------------------------------------

func (m *MsgReply) marshalBody(w *wire.Buf) {
	w.I64(int64(m.From)).U64(uint64(m.SN)).U64(uint64(m.View)).U64(m.TS).Bytes(m.Rep)
	marshalMerkleProof(w, &m.Proof)
	if m.FollowerCommit == nil {
		w.U8(0)
	} else {
		w.U8(1)
		m.FollowerCommit.marshalWire(w)
	}
	w.Bytes(m.MAC)
}

func (m *MsgReply) unmarshalBody(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	sn, ok2 := rd.U64()
	view, ok3 := rd.U64()
	ts, ok4 := rd.U64()
	rep, ok5 := rd.Bytes()
	if !(ok1 && ok2 && ok3 && ok4 && ok5) || !unmarshalMerkleProof(rd, &m.Proof) {
		return false
	}
	present, ok := rd.Bool()
	if !ok {
		return false
	}
	if present {
		m.FollowerCommit = new(Order)
		if !m.FollowerCommit.unmarshalWire(rd) {
			return false
		}
	}
	mac, ok6 := rd.Bytes()
	if !ok6 {
		return false
	}
	m.From, m.SN, m.View, m.TS, m.Rep, m.MAC =
		smr.NodeID(from), smr.SeqNum(sn), smr.View(view), ts, rep, crypto.MAC(mac)
	return true
}

func (m *MsgReplyDigest) marshalBody(w *wire.Buf) {
	w.I64(int64(m.From)).U64(uint64(m.SN)).U64(uint64(m.View)).U64(m.TS).
		Raw(m.RepDigest[:]).Bytes(m.MAC)
}

func (m *MsgReplyDigest) unmarshalBody(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	sn, ok2 := rd.U64()
	view, ok3 := rd.U64()
	ts, ok4 := rd.U64()
	if !(ok1 && ok2 && ok3 && ok4) || !readDigest(rd, &m.RepDigest) {
		return false
	}
	mac, ok5 := rd.Bytes()
	if !ok5 {
		return false
	}
	m.From, m.SN, m.View, m.TS, m.MAC =
		smr.NodeID(from), smr.SeqNum(sn), smr.View(view), ts, crypto.MAC(mac)
	return true
}

func (m *MsgSignedReply) marshalBody(w *wire.Buf) {
	w.Bytes(m.Rep)
	encodeSlice(w, m.Replies, (*ReplySig).marshalWire)
}

func (m *MsgSignedReply) unmarshalBody(rd *wire.Reader) bool {
	rep, ok := rd.Bytes()
	if !ok {
		return false
	}
	m.Rep = rep
	m.Replies, ok = decodeSlice(rd, rsigMinWire, (*ReplySig).unmarshalWire)
	return ok
}

func (m *MsgSuspect) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).I64(int64(m.From)).Bytes(m.Sig)
}

func (m *MsgSuspect) unmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	sig, ok3 := rd.Bytes()
	if !(ok1 && ok2 && ok3) {
		return false
	}
	m.View, m.From, m.Sig = smr.View(view), smr.NodeID(from), crypto.Signature(sig)
	return true
}

func (m *MsgViewInstalled) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).I64(int64(m.From)).Bytes(m.MAC)
}

func (m *MsgViewInstalled) unmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	mac, ok3 := rd.Bytes()
	if !(ok1 && ok2 && ok3) {
		return false
	}
	m.View, m.From, m.MAC = smr.View(view), smr.NodeID(from), crypto.MAC(mac)
	return true
}

func (m *MsgViewChange) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.NewView)).I64(int64(m.From))
	m.Checkpoint.marshalWire(w)
	w.Bytes(m.Snapshot)
	encodeSlice(w, m.CommitLog, (*CommitEntry).marshalWire)
	encodeSlice(w, m.PrepareLog, (*PrepareEntry).marshalWire)
	w.U64(uint64(m.PreView))
	encodeSlice(w, m.FinalProof, (*MsgVCConfirm).marshalBody)
	w.Bytes(m.Sig)
}

func (m *MsgViewChange) unmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	if !(ok1 && ok2) || !m.Checkpoint.unmarshalWire(rd) {
		return false
	}
	snap, ok := rd.Bytes()
	if !ok {
		return false
	}
	m.NewView, m.From, m.Snapshot = smr.View(view), smr.NodeID(from), snap
	if m.CommitLog, ok = decodeSlice(rd, commitMinWire, (*CommitEntry).unmarshalWire); !ok {
		return false
	}
	if m.PrepareLog, ok = decodeSlice(rd, prepMinWire, (*PrepareEntry).unmarshalWire); !ok {
		return false
	}
	pre, ok := rd.U64()
	if !ok {
		return false
	}
	m.PreView = smr.View(pre)
	if m.FinalProof, ok = decodeSlice(rd, vcConfMinWire, (*MsgVCConfirm).unmarshalBody); !ok {
		return false
	}
	sig, ok := rd.Bytes()
	if !ok {
		return false
	}
	m.Sig = crypto.Signature(sig)
	return true
}

// marshalBody encodes the vc-final message. VCSet entries are encoded
// without a presence byte: the protocol never assembles a VCSet with
// nil entries (AppendMessage rejects one), so nil is unrepresentable on
// the wire and the view-change handlers never see it — a decoded
// hostile frame cannot smuggle a nil into their dereferences.
func (m *MsgVCFinal) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.NewView)).I64(int64(m.From))
	w.U32(uint32(len(m.VCSet)))
	for _, vc := range m.VCSet {
		vc.marshalBody(w)
	}
	w.Bytes(m.Sig)
}

func (m *MsgVCFinal) unmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	if !(ok1 && ok2) {
		return false
	}
	m.NewView, m.From = smr.View(view), smr.NodeID(from)
	n, ok := readCount(rd, vcMinWire)
	if !ok {
		return false
	}
	if n > 0 {
		m.VCSet = make([]*MsgViewChange, n)
	}
	for i := range m.VCSet {
		m.VCSet[i] = new(MsgViewChange)
		if !m.VCSet[i].unmarshalBody(rd) {
			return false
		}
	}
	sig, ok := rd.Bytes()
	if !ok {
		return false
	}
	m.Sig = crypto.Signature(sig)
	return true
}

func (m *MsgVCConfirm) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.NewView)).I64(int64(m.From)).Raw(m.VCSetD[:]).Bytes(m.Sig)
}

func (m *MsgVCConfirm) unmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	if !(ok1 && ok2) || !readDigest(rd, &m.VCSetD) {
		return false
	}
	sig, ok3 := rd.Bytes()
	if !ok3 {
		return false
	}
	m.NewView, m.From, m.Sig = smr.View(view), smr.NodeID(from), crypto.Signature(sig)
	return true
}

func (m *MsgNewView) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.NewView)).I64(int64(m.From))
	encodeSlice(w, m.Prepares, (*PrepareEntry).marshalWire)
	w.Bytes(m.Sig)
}

func (m *MsgNewView) unmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	if !(ok1 && ok2) {
		return false
	}
	m.NewView, m.From = smr.View(view), smr.NodeID(from)
	var ok bool
	if m.Prepares, ok = decodeSlice(rd, prepMinWire, (*PrepareEntry).unmarshalWire); !ok {
		return false
	}
	sig, ok3 := rd.Bytes()
	if !ok3 {
		return false
	}
	m.Sig = crypto.Signature(sig)
	return true
}

func (m *MsgPrechk) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.SN)).U64(uint64(m.View)).Raw(m.StateD[:]).I64(int64(m.From)).Bytes(m.MAC)
}

func (m *MsgPrechk) unmarshalBody(rd *wire.Reader) bool {
	sn, ok1 := rd.U64()
	view, ok2 := rd.U64()
	if !(ok1 && ok2) || !readDigest(rd, &m.StateD) {
		return false
	}
	from, ok3 := rd.I64()
	mac, ok4 := rd.Bytes()
	if !(ok3 && ok4) {
		return false
	}
	m.SN, m.View, m.From, m.MAC = smr.SeqNum(sn), smr.View(view), smr.NodeID(from), crypto.MAC(mac)
	return true
}

func (m *MsgFaultProof) marshalBody(w *wire.Buf) {
	w.Str(m.Kind).U64(uint64(m.View)).I64(int64(m.Culprit)).U64(uint64(m.SN))
	marshalOptVC(w, m.EvidenceA)
	marshalOptVC(w, m.EvidenceB)
}

func (m *MsgFaultProof) unmarshalBody(rd *wire.Reader) bool {
	kind, ok1 := rd.Str()
	view, ok2 := rd.U64()
	culprit, ok3 := rd.I64()
	sn, ok4 := rd.U64()
	if !(ok1 && ok2 && ok3 && ok4) {
		return false
	}
	m.Kind, m.View, m.Culprit, m.SN = kind, smr.View(view), smr.NodeID(culprit), smr.SeqNum(sn)
	var ok bool
	if m.EvidenceA, ok = unmarshalOptVC(rd); !ok {
		return false
	}
	m.EvidenceB, ok = unmarshalOptVC(rd)
	return ok
}

func (m *MsgForkIIQuery) marshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).U64(uint64(m.OldView)).I64(int64(m.Culprit)).U64(uint64(m.SN))
	marshalOptVC(w, m.Evidence)
}

func (m *MsgForkIIQuery) unmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	old, ok2 := rd.U64()
	culprit, ok3 := rd.I64()
	sn, ok4 := rd.U64()
	if !(ok1 && ok2 && ok3 && ok4) {
		return false
	}
	m.View, m.OldView, m.Culprit, m.SN = smr.View(view), smr.View(old), smr.NodeID(culprit), smr.SeqNum(sn)
	var ok bool
	m.Evidence, ok = unmarshalOptVC(rd)
	return ok
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

// AppendMessage appends m's wire encoding (tag byte + body) to w.
// It errors on message types without a codec.
func AppendMessage(w *wire.Buf, m smr.Message) error {
	switch m := m.(type) {
	case *MsgReplicate:
		w.U8(tagReplicate)
		m.Req.marshalWire(w)
	case *MsgResend:
		w.U8(tagResend)
		m.Req.marshalWire(w)
	case *MsgPrepare:
		w.U8(tagPrepare)
		m.Entry.marshalWire(w)
	case *MsgCommitReq:
		w.U8(tagCommitReq)
		m.Entry.marshalWire(w)
	case *MsgCommit:
		w.U8(tagCommit)
		m.Order.marshalWire(w)
	case *MsgReply:
		w.U8(tagReply)
		m.marshalBody(w)
	case *MsgReplyDigest:
		w.U8(tagReplyDigest)
		m.marshalBody(w)
	case *MsgReplySign:
		w.U8(tagReplySign)
		m.R.marshalWire(w)
	case *MsgSignedReply:
		w.U8(tagSignedReply)
		m.marshalBody(w)
	case *MsgSuspect:
		w.U8(tagSuspect)
		m.marshalBody(w)
	case *MsgViewChange:
		w.U8(tagViewChange)
		m.marshalBody(w)
	case *MsgVCFinal:
		for _, vc := range m.VCSet {
			if vc == nil {
				return errors.New("xpaxos: nil VCSet entry is not encodable")
			}
		}
		w.U8(tagVCFinal)
		m.marshalBody(w)
	case *MsgVCConfirm:
		w.U8(tagVCConfirm)
		m.marshalBody(w)
	case *MsgNewView:
		w.U8(tagNewView)
		m.marshalBody(w)
	case *MsgPrechk:
		w.U8(tagPrechk)
		m.marshalBody(w)
	case *MsgChkpt:
		w.U8(tagChkpt)
		m.Rec.marshalWire(w)
	case *MsgLazyChk:
		w.U8(tagLazyChk)
		m.Proof.marshalWire(w)
	case *MsgLazyCommit:
		w.U8(tagLazyCommit)
		m.Entry.marshalWire(w)
	case *MsgFaultProof:
		w.U8(tagFaultProof)
		m.marshalBody(w)
	case *MsgForkIIQuery:
		w.U8(tagForkIIQuery)
		m.marshalBody(w)
	case *MsgViewInstalled:
		w.U8(tagViewInstalled)
		m.marshalBody(w)
	default:
		return fmt.Errorf("xpaxos: no wire codec for %T", m)
	}
	return nil
}

// MarshalMessage encodes m into a fresh buffer.
func MarshalMessage(m smr.Message) ([]byte, error) {
	w := wire.New(m.WireSize())
	if err := AppendMessage(w, m); err != nil {
		return nil, err
	}
	return w.Done(), nil
}

// DecodeMessage parses one encoded message. Byte-slice fields of the
// result alias b; the caller must not reuse the buffer. Trailing bytes
// are rejected so the encoding stays canonical.
func DecodeMessage(b []byte) (smr.Message, error) {
	rd := wire.NewReader(b)
	tag, ok := rd.U8()
	if !ok {
		return nil, ErrBadMessage
	}
	var m smr.Message
	switch tag {
	case tagReplicate:
		x := new(MsgReplicate)
		ok = x.Req.unmarshalWire(rd)
		m = x
	case tagResend:
		x := new(MsgResend)
		ok = x.Req.unmarshalWire(rd)
		m = x
	case tagPrepare:
		x := new(MsgPrepare)
		ok = x.Entry.unmarshalWire(rd)
		m = x
	case tagCommitReq:
		x := new(MsgCommitReq)
		ok = x.Entry.unmarshalWire(rd)
		m = x
	case tagCommit:
		x := new(MsgCommit)
		ok = x.Order.unmarshalWire(rd)
		m = x
	case tagReply:
		x := new(MsgReply)
		ok = x.unmarshalBody(rd)
		m = x
	case tagReplyDigest:
		x := new(MsgReplyDigest)
		ok = x.unmarshalBody(rd)
		m = x
	case tagReplySign:
		x := new(MsgReplySign)
		ok = x.R.unmarshalWire(rd)
		m = x
	case tagSignedReply:
		x := new(MsgSignedReply)
		ok = x.unmarshalBody(rd)
		m = x
	case tagSuspect:
		x := new(MsgSuspect)
		ok = x.unmarshalBody(rd)
		m = x
	case tagViewChange:
		x := new(MsgViewChange)
		ok = x.unmarshalBody(rd)
		m = x
	case tagVCFinal:
		x := new(MsgVCFinal)
		ok = x.unmarshalBody(rd)
		m = x
	case tagVCConfirm:
		x := new(MsgVCConfirm)
		ok = x.unmarshalBody(rd)
		m = x
	case tagNewView:
		x := new(MsgNewView)
		ok = x.unmarshalBody(rd)
		m = x
	case tagPrechk:
		x := new(MsgPrechk)
		ok = x.unmarshalBody(rd)
		m = x
	case tagChkpt:
		x := new(MsgChkpt)
		ok = x.Rec.unmarshalWire(rd)
		m = x
	case tagLazyChk:
		x := new(MsgLazyChk)
		ok = x.Proof.unmarshalWire(rd)
		m = x
	case tagLazyCommit:
		x := new(MsgLazyCommit)
		ok = x.Entry.unmarshalWire(rd)
		m = x
	case tagFaultProof:
		x := new(MsgFaultProof)
		ok = x.unmarshalBody(rd)
		m = x
	case tagForkIIQuery:
		x := new(MsgForkIIQuery)
		ok = x.unmarshalBody(rd)
		m = x
	case tagViewInstalled:
		x := new(MsgViewInstalled)
		ok = x.unmarshalBody(rd)
		m = x
	default:
		return nil, fmt.Errorf("xpaxos: unknown message tag %d: %w", tag, ErrBadMessage)
	}
	if !ok || rd.Remaining() != 0 {
		return nil, ErrBadMessage
	}
	return m, nil
}
