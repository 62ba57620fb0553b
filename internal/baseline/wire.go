// Package baseline is the scaffolding shared by the four protocols the
// XFT paper compares XPaxos against (Paxos, PBFT, Zab, Zyzzyva;
// Section 5.1.2): client requests and batches with their wire
// encoding, the leader's request intake, at-most-once execution, the
// closed-loop client and the tag-table wire codec. Each protocol
// package keeps only what makes it that protocol — its messages, its
// quorum rule and its leader/view/epoch change — so the evaluation
// compares agreement patterns on one common code base.
//
// The kit never asks which protocol is calling: whatever differs is
// passed in (a Domain, a Hooks set, a reply-acceptance rule) or stays
// in the protocol package.
package baseline

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// MsgHeader is the modeled per-message framing overhead in bytes.
const MsgHeader = 24

// ErrBadMessage reports an encoding that is truncated, malformed, or
// carries trailing bytes.
var ErrBadMessage = errors.New("baseline: malformed message encoding")

// Request is a client request. It is authenticated by transport MACs
// only — the paper-fidelity configuration — unless the deployment sets
// Config.SignedRequests, in which case the client signs it so every
// protocol in the arena carries XPaxos's client-authentication cost.
type Request struct {
	Op     []byte
	TS     uint64
	Client smr.NodeID
	// Sig is the client's signature under SignedRequests; empty
	// otherwise.
	Sig crypto.Signature
}

// WireSize returns the request's modeled size in bytes.
func (r *Request) WireSize() int { return len(r.Op) + 28 + len(r.Sig) }

func (r *Request) marshal(w *wire.Buf) {
	w.Bytes(r.Op).U64(r.TS).I64(int64(r.Client)).Bytes(r.Sig)
}

func (r *Request) unmarshal(rd *wire.Reader) bool {
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

// Batch groups requests under one sequence number.
type Batch struct{ Reqs []Request }

// WireSize returns the batch's modeled size in bytes.
func (b *Batch) WireSize() int {
	s := 4
	for i := range b.Reqs {
		s += b.Reqs[i].WireSize()
	}
	return s
}

// Marshal appends the batch's wire encoding.
func (b *Batch) Marshal(w *wire.Buf) {
	w.U32(uint32(len(b.Reqs)))
	for i := range b.Reqs {
		b.Reqs[i].marshal(w)
	}
}

// Minimum encoded sizes per element, used to bound slice counts before
// allocating: a hostile count fails fast instead of provoking a huge
// allocation.
const (
	reqMinWire   = 4 + 8 + 8 + 4 // Op len, TS, Client, Sig len
	entryMinWire = 8 + 8 + 4     // View, SN, batch count
)

// Unmarshal decodes a batch; request byte fields alias the input.
func (b *Batch) Unmarshal(rd *wire.Reader) bool {
	n, ok := ReadCount(rd, reqMinWire)
	if !ok {
		return false
	}
	if n > 0 {
		b.Reqs = make([]Request, n)
	}
	for i := range b.Reqs {
		if !b.Reqs[i].unmarshal(rd) {
			return false
		}
	}
	return true
}

// Domain separates one protocol's client signatures and batch digests
// from another's: the prefix ("px-", "pb-", "zab-", "zz-") is part of
// every signed payload and every digest preimage.
type Domain struct{ req, batch string }

// NewDomain returns the domain for a protocol's tag prefix.
func NewDomain(prefix string) Domain { return Domain{prefix + "req", prefix + "batch"} }

// AppendSigPayload writes the byte string a client signs over r.
func (d Domain) AppendSigPayload(w *wire.Buf, r *Request) {
	w.Str(d.req).Bytes(r.Op).U64(r.TS).I64(int64(r.Client))
}

// Digest hashes a batch. Signatures are excluded: they are checked at
// intake, and agreement is on what executes.
func (d Domain) Digest(b *Batch) crypto.Digest {
	w := wire.New(64 * len(b.Reqs)).Str(d.batch)
	for i := range b.Reqs {
		r := &b.Reqs[i]
		w.Bytes(r.Op).U64(r.TS).I64(int64(r.Client))
	}
	return crypto.Hash(w.Done())
}

// ReadCount reads a u32 element count and bounds it by the remaining
// input given each element's minimum encoded size.
func ReadCount(rd *wire.Reader, minElem int) (int, bool) {
	n, ok := rd.U32()
	if !ok || int64(n)*int64(minElem) > int64(rd.Remaining()) {
		return 0, false
	}
	return int(n), true
}

// ReadDigest reads a fixed-size digest.
func ReadDigest(rd *wire.Reader, d *crypto.Digest) bool {
	p, ok := rd.Raw(crypto.DigestSize)
	if ok {
		copy(d[:], p)
	}
	return ok
}

// ReadSlot reads the (view, sequence number) pair that opens every
// ordering message.
func ReadSlot(rd *wire.Reader) (smr.View, smr.SeqNum, bool) {
	v, ok1 := rd.U64()
	sn, ok2 := rd.U64()
	return smr.View(v), smr.SeqNum(sn), ok1 && ok2
}

// Entry is one log slot: the batch ordered at SN in View.
type Entry struct {
	View  smr.View
	SN    smr.SeqNum
	Batch Batch
}

// AppendEntries appends a counted entry list (log transfer during a
// leader change).
func AppendEntries(w *wire.Buf, es []Entry) {
	w.U32(uint32(len(es)))
	for i := range es {
		w.U64(uint64(es[i].View)).U64(uint64(es[i].SN))
		es[i].Batch.Marshal(w)
	}
}

// ReadEntries decodes a counted entry list.
func ReadEntries(rd *wire.Reader) ([]Entry, bool) {
	n, ok := ReadCount(rd, entryMinWire)
	if !ok {
		return nil, false
	}
	var es []Entry
	if n > 0 {
		es = make([]Entry, n)
	}
	for i := range es {
		e := &es[i]
		if e.View, e.SN, ok = ReadSlot(rd); !ok || !e.Batch.Unmarshal(rd) {
			return nil, false
		}
	}
	return es, true
}

// EntriesWireSize returns the modeled size of an entry list.
func EntriesWireSize(es []Entry) int {
	s := 0
	for i := range es {
		s += 16 + es[i].Batch.WireSize()
	}
	return s
}

// SortedEntries flattens a log into sequence order for transfer.
func SortedEntries(log map[smr.SeqNum]*Entry) []Entry {
	es := make([]Entry, 0, len(log))
	for _, e := range log {
		es = append(es, *e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].SN < es[j].SN })
	return es
}

// MergeEntries builds a new leader's log from the logs it collected:
// per slot the entry from the highest view wins, gaps below the highest
// slot become empty batches, and every entry is re-stamped with view.
// The result holds slots 1..len in order.
func MergeEntries(view smr.View, logs [][]Entry) []Entry {
	best := make(map[smr.SeqNum]*Entry)
	var maxSN smr.SeqNum
	for _, es := range logs {
		for i := range es {
			e := &es[i]
			if cur, ok := best[e.SN]; !ok || e.View > cur.View {
				best[e.SN] = e
			}
			maxSN = max(maxSN, e.SN)
		}
	}
	out := make([]Entry, 0, len(best))
	for sn := smr.SeqNum(1); sn <= maxSN; sn++ {
		e := Entry{SN: sn}
		if b, ok := best[sn]; ok {
			e = *b
		}
		e.View = view
		out = append(out, e)
	}
	return out
}

// Proposal is the shape of every leader-to-follower ordering message
// that ships a full batch under a MAC (Paxos ACCEPT and LEARN, PBFT
// PRE-PREPARE, Zab PROPOSE). Protocols embed it in their own message
// type, which supplies Type.
type Proposal struct {
	View  smr.View
	SN    smr.SeqNum
	Batch Batch
	MAC   crypto.MAC
}

// WireSize implements smr.Message.
func (m *Proposal) WireSize() int { return MsgHeader + 16 + m.Batch.WireSize() + len(m.MAC) }

// MarshalBody implements Body.
func (m *Proposal) MarshalBody(w *wire.Buf) {
	w.U64(uint64(m.View)).U64(uint64(m.SN))
	m.Batch.Marshal(w)
	w.Bytes(m.MAC)
}

// UnmarshalBody implements Body.
func (m *Proposal) UnmarshalBody(rd *wire.Reader) bool {
	var ok bool
	if m.View, m.SN, ok = ReadSlot(rd); !ok || !m.Batch.Unmarshal(rd) {
		return false
	}
	mac, ok := rd.Bytes()
	m.MAC = crypto.MAC(mac)
	return ok
}

// MACPayload returns the bytes the proposal's MAC covers: the message
// kind's tag, the slot and the batch digest under d.
func (m *Proposal) MACPayload(tag string, d Domain) []byte {
	dg := d.Digest(&m.Batch)
	return wire.New(64).Str(tag).U64(uint64(m.View)).U64(uint64(m.SN)).Raw(dg[:]).Done()
}

// MsgRequest carries a client request to the leader.
type MsgRequest struct{ Req Request }

// Type implements smr.Message.
func (m *MsgRequest) Type() string { return "request" }

// WireSize implements smr.Message.
func (m *MsgRequest) WireSize() int { return MsgHeader + m.Req.WireSize() }

// MarshalBody implements Body.
func (m *MsgRequest) MarshalBody(w *wire.Buf) { m.Req.marshal(w) }

// UnmarshalBody implements Body.
func (m *MsgRequest) UnmarshalBody(rd *wire.Reader) bool { return m.Req.unmarshal(rd) }

// Body is a message that encodes its own fields in explicit fixed
// order. Decoded byte-slice fields alias the input buffer.
type Body interface {
	smr.Message
	MarshalBody(w *wire.Buf)
	UnmarshalBody(rd *wire.Reader) bool
}

// Codec is one protocol's wire codec: a one-byte message-type tag
// followed by the message's body. It is canonical — every valid byte
// string decodes to exactly one message, which re-encodes to the same
// bytes (each protocol's fuzz target asserts this).
type Codec struct {
	name  string
	types map[byte]reflect.Type
	tags  map[reflect.Type]byte
}

// NewCodec builds the codec for a protocol from its tag table (tag →
// a nil pointer of the message type) and registers it with the
// protocol-agnostic registry in internal/wire under name, so the TCP
// transport can carry the protocol without importing it. Tag values
// are part of the wire format and must not be renumbered.
func NewCodec(name string, table map[byte]Body) *Codec {
	c := &Codec{name: name, types: make(map[byte]reflect.Type), tags: make(map[reflect.Type]byte)}
	for tag, m := range table {
		t := reflect.TypeOf(m)
		c.types[tag], c.tags[t] = t.Elem(), tag
	}
	wire.Register(wire.Codec{Name: name, Append: c.Append, Decode: c.Decode})
	return c
}

// Append appends m's wire encoding (tag byte + body) to w. It errors
// on message types outside the codec's table.
func (c *Codec) Append(w *wire.Buf, m smr.Message) error {
	tag, ok := c.tags[reflect.TypeOf(m)]
	if !ok {
		return fmt.Errorf("%s: no wire codec for %T", c.name, m)
	}
	w.U8(tag)
	m.(Body).MarshalBody(w)
	return nil
}

// Marshal encodes m into a fresh buffer.
func (c *Codec) Marshal(m smr.Message) ([]byte, error) {
	w := wire.New(m.WireSize())
	if err := c.Append(w, m); err != nil {
		return nil, err
	}
	return w.Done(), nil
}

// Decode parses one encoded message. Byte-slice fields of the result
// alias b; the caller must not reuse the buffer. Trailing bytes are
// rejected so the encoding stays canonical.
func (c *Codec) Decode(b []byte) (smr.Message, error) {
	rd := wire.NewReader(b)
	tag, ok := rd.U8()
	if !ok {
		return nil, ErrBadMessage
	}
	t, ok := c.types[tag]
	if !ok {
		return nil, fmt.Errorf("%s: unknown message tag %d: %w", c.name, tag, ErrBadMessage)
	}
	m := reflect.New(t).Interface().(Body)
	if !m.UnmarshalBody(rd) || rd.Remaining() != 0 {
		return nil, ErrBadMessage
	}
	return m, nil
}
