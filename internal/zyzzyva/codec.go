package zyzzyva

// Wire codec for Zyzzyva messages: the tag table that wire.NewCodec
// turns into the registered codec, and one field list per message type
// (the request's comes with internal/baseline).

import (
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

var codec = wire.NewCodec(CodecName,
	wire.Row(tagRequest, (*MsgRequest).Code),
	wire.Row(tagOrderReq, (*MsgOrderReq).code),
	wire.Row(tagSpecResponse, (*MsgSpecResponse).code),
	wire.Row(tagCommitCert, (*MsgCommitCert).code),
	wire.Row(tagLocalCommit, (*MsgLocalCommit).code),
	wire.Row(tagViewChange, (*MsgViewChange).Code),
	wire.Row(tagNewView, (*MsgNewView).Code),
)

// MarshalMessage and DecodeMessage encode and decode one message (see
// wire.TagCodec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

// voterWire is a commit-cert voter's encoded size, bounding the count.
const voterWire = 8

func (m *MsgOrderReq) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.U64(c, &m.SN)
	c.Raw(m.History[:])
	m.Batch.Code(c)
	wire.Bytes(c, &m.MAC)
}

// A backup's digest-only response (nil Rep) and an empty reply encode
// identically and both decode to an empty Rep; RepD tells the client
// which it got.
func (m *MsgSpecResponse) code(c *wire.Coder) {
	wire.I64(c, &m.From)
	wire.U64(c, &m.View)
	wire.U64(c, &m.SN)
	c.Raw(m.History[:])
	wire.U64(c, &m.TS)
	c.Raw(m.RepD[:])
	wire.Bytes(c, &m.Rep)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgCommitCert) code(c *wire.Coder) {
	wire.I64(c, &m.Client)
	wire.U64(c, &m.TS)
	wire.U64(c, &m.View)
	wire.U64(c, &m.SN)
	c.Raw(m.History[:])
	wire.Slice(c, &m.Voters, voterWire, func(v *smr.NodeID, c *wire.Coder) { wire.I64(c, v) })
}

func (m *MsgLocalCommit) code(c *wire.Coder) {
	wire.I64(c, &m.From)
	wire.U64(c, &m.TS)
	wire.U64(c, &m.SN)
	wire.Bytes(c, &m.MAC)
}
