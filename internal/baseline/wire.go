// Package baseline is the scaffolding shared by the four protocols the
// XFT paper compares XPaxos against (Paxos, PBFT, Zab, Zyzzyva;
// Section 5.1.2): client requests and batches with their wire
// encoding, the leader's request intake, at-most-once execution and
// the closed-loop client. Each protocol package keeps only what makes
// it that protocol — its messages, its quorum rule and its
// leader/view/epoch change — so the evaluation compares agreement
// patterns on one common code base.
//
// On the wire every type, here and in the protocol packages, is one
// field list over wire.Coder (a Code method for the kit's types) that
// both encodes and decodes it, and a protocol's codec is its tag table
// handed to wire.NewCodec. The modelled WireSize methods and the signed
// and MAC'd payloads are written out separately on purpose: simulated
// timing and signatures must not move with the transport layout.
//
// The kit never asks which protocol is calling: whatever differs is
// passed in (a Domain, a Hooks set, a reply-acceptance rule) or stays
// in the protocol package.
package baseline

import (
	"sort"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// MsgHeader is the modeled per-message framing overhead in bytes.
const MsgHeader = 24

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

// Code is the request's field list; byte fields alias a decoded input.
func (r *Request) Code(c *wire.Coder) {
	wire.Bytes(c, &r.Op)
	wire.U64(c, &r.TS)
	wire.I64(c, &r.Client)
	wire.Bytes(c, &r.Sig)
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

// Minimum encoded sizes per element, used to bound slice counts before
// allocating: a hostile count fails fast instead of provoking a huge
// allocation.
const (
	reqMinWire   = 4 + 8 + 8 + 4 // Op len, TS, Client, Sig len
	entryMinWire = 8 + 8 + 4     // View, SN, batch count
)

// Code is the batch's field list.
func (b *Batch) Code(c *wire.Coder) { wire.Slice(c, &b.Reqs, reqMinWire, (*Request).Code) }

// Domain separates one protocol's client signatures and batch digests
// from another's: the prefix ("px-", "pb-", "zab-", "zz-") is part of
// every signed payload (requests, and the log-transfer view change of
// viewchange.go) and every digest preimage.
type Domain struct{ req, batch, vc, nv string }

// NewDomain returns the domain for a protocol's tag prefix.
func NewDomain(prefix string) Domain {
	return Domain{prefix + "req", prefix + "batch", prefix + "vc", prefix + "nv"}
}

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

// Entry is one log slot: the batch ordered at SN in View.
type Entry struct {
	View  smr.View
	SN    smr.SeqNum
	Batch Batch
}

// Code is the entry's field list.
func (e *Entry) Code(c *wire.Coder) {
	wire.U64(c, &e.View)
	wire.U64(c, &e.SN)
	e.Batch.Code(c)
}

// CodeEntries codes a counted entry list (log transfer during a leader
// change).
func CodeEntries(c *wire.Coder, es *[]Entry) { wire.Slice(c, es, entryMinWire, (*Entry).Code) }

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

// Code is the proposal's field list, promoted to the message types
// that embed it.
func (m *Proposal) Code(c *wire.Coder) {
	wire.U64(c, &m.View)
	wire.U64(c, &m.SN)
	m.Batch.Code(c)
	wire.Bytes(c, &m.MAC)
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

// Code is the message's field list.
func (m *MsgRequest) Code(c *wire.Coder) { m.Req.Code(c) }
