package paxos

// Wire codec for Paxos messages: the tag table that wire.NewCodec
// turns into the registered codec, and one field list per message type
// (request, accept and learn come with internal/baseline).

import (
	"github.com/xft-consensus/xft/internal/baseline"
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

var codec = wire.NewCodec(CodecName,
	wire.Row(tagRequest, (*MsgRequest).Code),
	wire.Row(tagAccept, (*MsgAccept).Code),
	wire.Row(tagAccepted, (*MsgAccepted).code),
	wire.Row(tagCommit, (*MsgCommit).code),
	wire.Row(tagLearn, (*MsgLearn).Code),
	wire.Row(tagReply, (*MsgReply).code),
	wire.Row(tagPrepare, (*MsgPrepare).code),
	wire.Row(tagPromise, (*MsgPromise).code),
)

// MarshalMessage and DecodeMessage encode and decode one message (see
// wire.TagCodec); the transport reaches the same codec by name.
var (
	MarshalMessage = codec.Marshal
	DecodeMessage  = codec.Decode
)

func (m *MsgAccepted) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.U64(c, &m.SN)
	c.Raw(m.D[:])
	wire.I64(c, &m.From)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgCommit) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.U64(c, &m.SN)
	c.Raw(m.D[:])
	wire.Bytes(c, &m.MAC)
}

func (m *MsgReply) code(c *wire.Coder) {
	wire.I64(c, &m.From)
	wire.U64(c, &m.View)
	wire.U64(c, &m.TS)
	wire.Bytes(c, &m.Rep)
	wire.Bytes(c, &m.MAC)
}

func (m *MsgPrepare) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.I64(c, &m.From)
}

func (m *MsgPromise) code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.I64(c, &m.From)
	wire.U64(c, &m.Executed)
	baseline.CodeEntries(c, &m.Accepted)
}
