package pbft

// Wire codec for PBFT messages: the tag table that wire.NewCodec
// turns into the registered codec, and one field list per message type
// (request and pre-prepare come with internal/baseline).

import (
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

var codec = wire.NewCodec(CodecName,
	wire.Row(tagRequest, (*MsgRequest).Code),
	wire.Row(tagPrePrepare, (*MsgPrePrepare).Code),
	wire.Row(tagCommit, (*MsgCommit).code),
	wire.Row(tagReply, (*MsgReply).code),
	wire.Row(tagViewChange, (*MsgViewChange).Code),
	wire.Row(tagNewView, (*MsgNewView).Code),
)

// MarshalMessage and DecodeMessage encode and decode one message (see
// wire.TagCodec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

func (m *MsgCommit) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.U64(c, &m.SN)
	c.Raw(m.D[:])
	wire.I64(c, &m.From)
	wire.Bytes(c, &m.MAC)
}

// A digest-only reply (nil Rep) and an empty reply encode identically
// and both decode to an empty Rep; RepD tells the client which it got.
func (m *MsgReply) code(c *wire.Coder) {
	wire.I64(c, &m.From)
	wire.U64(c, &m.View)
	wire.U64(c, &m.TS)
	wire.Bytes(c, &m.Rep)
	c.Raw(m.RepD[:])
	wire.Bytes(c, &m.MAC)
}
