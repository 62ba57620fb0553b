package zab

// Wire codec for Zab messages: each message's body in explicit fixed
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
	tagPropose
	tagAck
	tagCommit
	tagReply
	tagEpochChange
	tagNewEpoch
)

// CodecName is the registry name of the Zab wire codec.
const CodecName = "zab"

var codec = baseline.NewCodec(CodecName, map[byte]baseline.Body{
	tagRequest:     (*MsgRequest)(nil),
	tagPropose:     (*MsgPropose)(nil),
	tagAck:         (*MsgAck)(nil),
	tagCommit:      (*MsgCommit)(nil),
	tagReply:       (*MsgReply)(nil),
	tagEpochChange: (*MsgEpochChange)(nil),
	tagNewEpoch:    (*MsgNewEpoch)(nil),
})

// MarshalMessage and DecodeMessage encode and decode one message (see
// baseline.Codec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

// MarshalBody implements baseline.Body.
func (m *MsgAck) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.Epoch)).U64(uint64(m.ZXID)).I64(int64(m.From)).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgAck) UnmarshalBody(rd *wire.Reader) bool {
	var ok bool
	if m.Epoch, m.ZXID, ok = baseline.ReadSlot(rd); !ok {
		return false
	}
	from, ok1 := rd.I64()
	mac, ok2 := rd.Bytes()
	m.From, m.MAC = smr.NodeID(from), crypto.MAC(mac)
	return ok1 && ok2
}

// MarshalBody implements baseline.Body.
func (m *MsgCommit) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.Epoch)).U64(uint64(m.ZXID)).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgCommit) UnmarshalBody(rd *wire.Reader) bool {
	var ok bool
	if m.Epoch, m.ZXID, ok = baseline.ReadSlot(rd); !ok {
		return false
	}
	mac, ok := rd.Bytes()
	m.MAC = crypto.MAC(mac)
	return ok
}

// MarshalBody implements baseline.Body.
func (m *MsgReply) MarshalBody(w *wire.Buf) {
	w.I64(int64(m.From)).U64(m.TS).Bytes(m.Rep).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgReply) UnmarshalBody(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	ts, ok2 := rd.U64()
	rep, ok3 := rd.Bytes()
	mac, ok4 := rd.Bytes()
	m.From, m.TS, m.Rep, m.MAC = smr.NodeID(from), ts, rep, crypto.MAC(mac)
	return ok1 && ok2 && ok3 && ok4
}

// MarshalBody implements baseline.Body.
func (m *MsgEpochChange) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.Epoch)).I64(int64(m.From))
	baseline.AppendEntries(w, m.Entries)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgEpochChange) UnmarshalBody(rd *wire.Reader) bool {
	epoch, ok1 := rd.U64()
	from, ok2 := rd.I64()
	if !(ok1 && ok2) {
		return false
	}
	m.Epoch, m.From = smr.View(epoch), smr.NodeID(from)
	var ok bool
	m.Entries, ok = baseline.ReadEntries(rd)
	return ok
}

// MarshalBody implements baseline.Body.
func (m *MsgNewEpoch) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.Epoch))
	baseline.AppendEntries(w, m.Entries)
	w.Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgNewEpoch) UnmarshalBody(rd *wire.Reader) bool {
	epoch, ok := rd.U64()
	if !ok {
		return false
	}
	entries, ok := baseline.ReadEntries(rd)
	if !ok {
		return false
	}
	mac, ok := rd.Bytes()
	m.Epoch, m.Entries, m.MAC = smr.View(epoch), entries, crypto.MAC(mac)
	return ok
}
