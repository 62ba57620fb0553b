package paxos

// Wire codec for Paxos messages: each message's body in explicit
// fixed field order, and the tag table that internal/baseline turns
// into the registered codec.

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
	tagAccept
	tagAccepted
	tagCommit
	tagLearn
	tagReply
	tagPrepare
	tagPromise
)

// CodecName is the registry name of the Paxos wire codec.
const CodecName = "paxos"

var codec = baseline.NewCodec(CodecName, map[byte]baseline.Body{
	tagRequest:  (*MsgRequest)(nil),
	tagAccept:   (*MsgAccept)(nil),
	tagAccepted: (*MsgAccepted)(nil),
	tagCommit:   (*MsgCommit)(nil),
	tagLearn:    (*MsgLearn)(nil),
	tagReply:    (*MsgReply)(nil),
	tagPrepare:  (*MsgPrepare)(nil),
	tagPromise:  (*MsgPromise)(nil),
})

// MarshalMessage and DecodeMessage encode and decode one message (see
// baseline.Codec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

// MarshalBody implements baseline.Body.
func (m *MsgAccepted) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.D[:]).I64(int64(m.From)).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgAccepted) UnmarshalBody(rd *wire.Reader) bool {
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
func (m *MsgCommit) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.D[:]).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgCommit) UnmarshalBody(rd *wire.Reader) bool {
	var ok bool
	if m.View, m.SN, ok = baseline.ReadSlot(rd); !ok || !baseline.ReadDigest(rd, &m.D) {
		return false
	}
	mac, ok := rd.Bytes()
	m.MAC = crypto.MAC(mac)
	return ok
}

// MarshalBody implements baseline.Body.
func (m *MsgReply) MarshalBody(w *wire.Buf) {
	w.I64(int64(m.From)).U64(uint64(m.View)).U64(m.TS).Bytes(m.Rep).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgReply) UnmarshalBody(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	view, ok2 := rd.U64()
	ts, ok3 := rd.U64()
	rep, ok4 := rd.Bytes()
	mac, ok5 := rd.Bytes()
	m.From, m.View, m.TS, m.Rep, m.MAC = smr.NodeID(from), smr.View(view), ts, rep, crypto.MAC(mac)
	return ok1 && ok2 && ok3 && ok4 && ok5
}

// MarshalBody implements baseline.Body.
func (m *MsgPrepare) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).I64(int64(m.From))
}

// UnmarshalBody implements baseline.Body.
func (m *MsgPrepare) UnmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	m.View, m.From = smr.View(view), smr.NodeID(from)
	return ok1 && ok2
}

// MarshalBody implements baseline.Body.
func (m *MsgPromise) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).I64(int64(m.From)).U64(uint64(m.Executed))
	baseline.AppendEntries(w, m.Accepted)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgPromise) UnmarshalBody(rd *wire.Reader) bool {
	view, ok1 := rd.U64()
	from, ok2 := rd.I64()
	ex, ok3 := rd.U64()
	if !(ok1 && ok2 && ok3) {
		return false
	}
	m.View, m.From, m.Executed = smr.View(view), smr.NodeID(from), smr.SeqNum(ex)
	var ok bool
	m.Accepted, ok = baseline.ReadEntries(rd)
	return ok
}
