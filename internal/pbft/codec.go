package pbft

// Wire codec for PBFT messages: each message's body in explicit fixed
// field order, and the tag table that internal/baseline turns into the
// registered codec.

import (
	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// Message-type tags. The tag namespace is scoped to this codec; values
// are part of the wire format and must not be renumbered.
const (
	tagRequest byte = iota + 1
	tagPrePrepare
	tagCommit
	tagReply
	tagViewChange
	tagNewView
)

// CodecName is the registry name of the PBFT wire codec.
const CodecName = "pbft"

var codec = baseline.NewCodec(CodecName, map[byte]baseline.Body{
	tagRequest:    (*MsgRequest)(nil),
	tagPrePrepare: (*MsgPrePrepare)(nil),
	tagCommit:     (*MsgCommit)(nil),
	tagReply:      (*MsgReply)(nil),
	tagViewChange: (*MsgViewChange)(nil),
	tagNewView:    (*MsgNewView)(nil),
})

// MarshalMessage and DecodeMessage encode and decode one message (see
// baseline.Codec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

// MarshalBody implements baseline.Body.
func (m *MsgCommit) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.D[:]).I64(int64(m.From)).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgCommit) UnmarshalBody(rd *wire.Reader) bool {
	var ok bool
	if m.View, m.SN, ok = baseline.ReadSlot(rd); !ok || !baseline.ReadDigest(rd, &m.D) {
		return false
	}
	from, ok1 := rd.I64()
	mac, ok2 := rd.Bytes()
	m.From, m.MAC = smr.NodeID(from), crypto.MAC(mac)
	return ok1 && ok2
}

// MarshalBody implements baseline.Body.
func (m *MsgReply) MarshalBody(w *wire.Buf) {
	w.I64(int64(m.From)).U64(uint64(m.View)).U64(m.TS).Bytes(m.Rep).Raw(m.RepD[:]).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgReply) UnmarshalBody(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	view, ok2 := rd.U64()
	ts, ok3 := rd.U64()
	rep, ok4 := rd.Bytes()
	if !(ok1 && ok2 && ok3 && ok4) || !baseline.ReadDigest(rd, &m.RepD) {
		return false
	}
	mac, ok5 := rd.Bytes()
	// A nil Rep (digest-only reply) and an empty Rep encode identically;
	// normalize to nil so the encoding stays canonical.
	if len(rep) == 0 {
		rep = nil
	}
	m.From, m.View, m.TS, m.Rep, m.MAC = smr.NodeID(from), smr.View(view), ts, rep, crypto.MAC(mac)
	return ok5
}

// MarshalBody implements baseline.Body.
func (m *MsgViewChange) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).I64(int64(m.From))
	baseline.AppendEntries(w, m.Entries)
	w.Bytes(m.Sig)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgViewChange) UnmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	if !(ok1 && ok2) {
		return false
	}
	entries, ok := baseline.ReadEntries(rd)
	if !ok {
		return false
	}
	sig, ok := rd.Bytes()
	m.View, m.From, m.Entries, m.Sig = smr.View(view), smr.NodeID(from), entries, crypto.Signature(sig)
	return ok
}

// MarshalBody implements baseline.Body.
func (m *MsgNewView) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View))
	baseline.AppendEntries(w, m.Entries)
	w.Bytes(m.Sig)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgNewView) UnmarshalBody(rd *wire.Reader) bool {
	view, ok := rd.U64()
	if !ok {
		return false
	}
	entries, ok := baseline.ReadEntries(rd)
	if !ok {
		return false
	}
	sig, ok := rd.Bytes()
	m.View, m.Entries, m.Sig = smr.View(view), entries, crypto.Signature(sig)
	return ok
}
