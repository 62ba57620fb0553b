package zab

// Wire codec for Zab messages: the tag table that wire.NewCodec
// turns into the registered codec, and one field list per message type
// (request and propose come with internal/baseline).

import (
	"github.com/xft-consensus/xft/internal/baseline"
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

var codec = wire.NewCodec(CodecName,
	wire.Row(tagRequest, (*MsgRequest).Code),
	wire.Row(tagPropose, (*MsgPropose).Code),
	wire.Row(tagAck, (*MsgAck).code),
	wire.Row(tagCommit, (*MsgCommit).code),
	wire.Row(tagReply, (*MsgReply).code),
	wire.Row(tagEpochChange, (*MsgEpochChange).code),
	wire.Row(tagNewEpoch, (*MsgNewEpoch).code),
)

// MarshalMessage and DecodeMessage encode and decode one message (see
// wire.TagCodec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

func (m *MsgAck) code(c *wire.Coder) {
	wire.U64(c, &m.Epoch)
	wire.U64(c, &m.ZXID)
	wire.I64(c, &m.From)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgCommit) code(c *wire.Coder) {
	wire.U64(c, &m.Epoch)
	wire.U64(c, &m.ZXID)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgReply) code(c *wire.Coder) {
	wire.I64(c, &m.From)
	wire.U64(c, &m.TS)
	wire.Bytes(c, &m.Rep)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgEpochChange) code(c *wire.Coder) {
	wire.U64(c, &m.Epoch)
	wire.I64(c, &m.From)
	baseline.CodeEntries(c, &m.Entries)
}

func (m *MsgNewEpoch) code(c *wire.Coder) {
	wire.U64(c, &m.Epoch)
	baseline.CodeEntries(c, &m.Entries)
	wire.Bytes(c, &m.MAC)
}
