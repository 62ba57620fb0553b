package zyzzyva

// Wire codec for Zyzzyva messages: each message's body in explicit
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
	tagOrderReq
	tagSpecResponse
	tagCommitCert
	tagLocalCommit
	tagViewChange
	tagNewView
)

// CodecName is the registry name of the Zyzzyva wire codec.
const CodecName = "zyzzyva"

var codec = baseline.NewCodec(CodecName, map[byte]baseline.Body{
	tagRequest:      (*MsgRequest)(nil),
	tagOrderReq:     (*MsgOrderReq)(nil),
	tagSpecResponse: (*MsgSpecResponse)(nil),
	tagCommitCert:   (*MsgCommitCert)(nil),
	tagLocalCommit:  (*MsgLocalCommit)(nil),
	tagViewChange:   (*MsgViewChange)(nil),
	tagNewView:      (*MsgNewView)(nil),
})

// MarshalMessage and DecodeMessage encode and decode one message (see
// baseline.Codec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

// voterWire is a commit-cert voter's encoded size, bounding the count.
const voterWire = 8

// MarshalBody implements baseline.Body.
func (m *MsgOrderReq) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.History[:])
	m.Batch.Marshal(w)
	w.Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgOrderReq) UnmarshalBody(rd *wire.Reader) bool {
	var ok bool
	if m.View, m.SN, ok = baseline.ReadSlot(rd); !ok || !baseline.ReadDigest(rd, &m.History) || !m.Batch.Unmarshal(rd) {
		return false
	}
	mac, ok := rd.Bytes()
	m.MAC = crypto.MAC(mac)
	return ok
}

// MarshalBody implements baseline.Body.
func (m *MsgSpecResponse) MarshalBody(w *wire.Buf) {
	w.I64(int64(m.From)).U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.History[:]).
		U64(m.TS).Raw(m.RepD[:]).Bytes(m.Rep).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgSpecResponse) UnmarshalBody(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	view, ok2 := rd.U64()
	sn, ok3 := rd.U64()
	if !(ok1 && ok2 && ok3) || !baseline.ReadDigest(rd, &m.History) {
		return false
	}
	ts, ok4 := rd.U64()
	if !ok4 || !baseline.ReadDigest(rd, &m.RepD) {
		return false
	}
	rep, ok5 := rd.Bytes()
	mac, ok6 := rd.Bytes()
	// A nil Rep (digest-only response from a backup) and an empty Rep
	// encode identically; normalize to nil so the encoding stays
	// canonical.
	if len(rep) == 0 {
		rep = nil
	}
	m.From, m.View, m.SN, m.TS = smr.NodeID(from), smr.View(view), smr.SeqNum(sn), ts
	m.Rep, m.MAC = rep, crypto.MAC(mac)
	return ok5 && ok6
}

// MarshalBody implements baseline.Body.
func (m *MsgCommitCert) MarshalBody(w *wire.Buf) {
	w.I64(int64(m.Client)).U64(m.TS).U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.History[:])
	w.U32(uint32(len(m.Voters)))
	for _, v := range m.Voters {
		w.I64(int64(v))
	}
}

// UnmarshalBody implements baseline.Body.
func (m *MsgCommitCert) UnmarshalBody(rd *wire.Reader) bool {
	client, ok1 := rd.I64()
	ts, ok2 := rd.U64()
	if !(ok1 && ok2) {
		return false
	}
	m.Client, m.TS = smr.NodeID(client), ts
	var ok bool
	if m.View, m.SN, ok = baseline.ReadSlot(rd); !ok || !baseline.ReadDigest(rd, &m.History) {
		return false
	}
	n, ok := baseline.ReadCount(rd, voterWire)
	if !ok {
		return false
	}
	if n > 0 {
		m.Voters = make([]smr.NodeID, n)
	}
	for i := range m.Voters {
		v, ok := rd.I64()
		if !ok {
			return false
		}
		m.Voters[i] = smr.NodeID(v)
	}
	return true
}

// MarshalBody implements baseline.Body.
func (m *MsgLocalCommit) MarshalBody(w *wire.Buf) {
	w.I64(int64(m.From)).U64(m.TS).U64(uint64(m.SN)).Bytes(m.MAC)
}

// UnmarshalBody implements baseline.Body.
func (m *MsgLocalCommit) UnmarshalBody(rd *wire.Reader) bool {
	from, ok1 := rd.I64()
	ts, ok2 := rd.U64()
	sn, ok3 := rd.U64()
	mac, ok4 := rd.Bytes()
	m.From, m.TS, m.SN, m.MAC = smr.NodeID(from), ts, smr.SeqNum(sn), crypto.MAC(mac)
	return ok1 && ok2 && ok3 && ok4
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
