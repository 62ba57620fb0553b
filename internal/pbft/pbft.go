// Package pbft implements the speculative PBFT variant the XFT paper
// benchmarks against (Section 5.1.2, Figure 6a): a 2-phase common-case
// commit across only 2t+1 *active* replicas out of n = 3t+1, which is
// more efficient in geo-replicated settings than involving all
// replicas. Common-case messages carry MACs.
//
//	client → primary → PRE-PREPARE to 2t actives
//	       → COMMIT exchanged among the 2t+1 actives → replies
//
// The client commits on t+1 matching replies.
//
// View changes are crash-fault-grade (signed view-change messages
// transferring accepted logs, highest view wins): the paper's
// evaluation exercises only the BFT baselines' common case, and this
// repository's Byzantine experiments target XPaxos. This simplification
// is documented in DESIGN.md.
//
// Request intake, execution, the client core and the codec plumbing
// come from internal/baseline; this package is the agreement logic.
package pbft

import (
	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

const msgHeader = baseline.MsgHeader

// domain tags every PBFT signature, digest and MAC payload.
var domain = baseline.NewDomain("pb-")

// The shared request, batch, log-entry and configuration types.
type (
	Request    = baseline.Request
	Batch      = baseline.Batch
	Entry      = baseline.Entry
	MsgRequest = baseline.MsgRequest
	Config     = baseline.Config
	// The view change is the kit's log transfer under this domain's tags.
	MsgViewChange = baseline.MsgViewChange
	MsgNewView    = baseline.MsgNewView
)

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

// MsgPrePrepare is the primary's ordering proposal.
type MsgPrePrepare struct{ baseline.Proposal }

// Type implements smr.Message.
func (m *MsgPrePrepare) Type() string { return "pre-prepare" }

// MsgCommit is exchanged among actives.
type MsgCommit struct {
	View smr.View
	SN   smr.SeqNum
	D    crypto.Digest
	From smr.NodeID
	MAC  crypto.MAC
}

// Type implements smr.Message.
func (m *MsgCommit) Type() string { return "commit" }

// WireSize implements smr.Message.
func (m *MsgCommit) WireSize() int { return msgHeader + 24 + 32 + len(m.MAC) }

func (m *MsgCommit) macPayload() []byte {
	return wire.New(64).Str("pb-cm").U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.D[:]).I64(int64(m.From)).Done()
}

// MsgReply answers the client (full payload from the primary, digest
// from other actives).
type MsgReply struct {
	From smr.NodeID
	View smr.View
	TS   uint64
	Rep  []byte // nil for digest replies
	RepD crypto.Digest
	MAC  crypto.MAC
}

// Type implements smr.Message.
func (m *MsgReply) Type() string { return "reply" }

// WireSize implements smr.Message.
func (m *MsgReply) WireSize() int { return msgHeader + 24 + len(m.Rep) + 32 + len(m.MAC) }

func (m *MsgReply) macPayload() []byte {
	return wire.New(64 + len(m.Rep)).Str("pb-rep").I64(int64(m.From)).U64(uint64(m.View)).U64(m.TS).Raw(m.RepD[:]).Bytes(m.Rep).Done()
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

// Replica is a speculative-PBFT replica (smr.Node).
type Replica struct {
	*baseline.Core

	sn, ex smr.SeqNum
	log    map[smr.SeqNum]*Entry
	votes  map[smr.SeqNum]map[smr.NodeID]crypto.Digest
	chosen map[smr.SeqNum]bool
	// ppInFlight marks pre-prepares whose client signatures a backup is
	// still verifying (SignedRequests only).
	ppInFlight map[smr.SeqNum]bool

	vc baseline.LogTransfer
}

// NewReplica builds a replica.
func NewReplica(id smr.NodeID, cfg Config, app smr.Application) *Replica {
	r := &Replica{
		log:        make(map[smr.SeqNum]*Entry),
		votes:      make(map[smr.SeqNum]map[smr.NodeID]crypto.Digest),
		chosen:     make(map[smr.SeqNum]bool),
		ppInFlight: make(map[smr.SeqNum]bool),
	}
	r.Core = baseline.NewCore(id, cfg.WithDefaults(3), domain, app, baseline.Hooks{
		Recv: r.onRecv, Propose: r.propose,
		Resend: func(client smr.NodeID, ts uint64, rep []byte) {
			if r.IsLeader() {
				r.reply(client, ts, rep)
			}
		},
		Suspect: func() { r.vc.Start(r.View + 1) },
	})
	r.vc = baseline.LogTransfer{Core: r.Core, Quorum: 2*r.T + 1, Log: r.log, Announce: r.announce, Install: r.install}
	return r
}

// isActive reports whether this replica is one of the current view's
// 2t+1 actives: the primary and the 2t replicas after it in ring order.
func (r *Replica) isActive() bool {
	return (int(r.ID)-int(r.Leader())+r.N)%r.N <= 2*r.T
}

// otherActives lists the current view's actives except this replica,
// in ring order from the primary.
func (r *Replica) otherActives() []smr.NodeID {
	out := make([]smr.NodeID, 0, 2*r.T)
	for i := 0; i <= 2*r.T; i++ {
		if id := smr.NodeID((int(r.Leader()) + i) % r.N); id != r.ID {
			out = append(out, id)
		}
	}
	return out
}

func (r *Replica) onRecv(from smr.NodeID, msg smr.Message) {
	switch m := msg.(type) {
	case *MsgPrePrepare:
		r.onPrePrepare(from, m)
	case *MsgCommit:
		r.onCommit(from, m)
	default:
		r.vc.Recv(from, msg)
	}
}

func (r *Replica) propose(batch Batch) {
	r.sn++
	sn := r.sn
	r.log[sn] = &Entry{View: r.View, SN: sn, Batch: batch}
	r.vote(sn, r.ID, domain.Digest(&batch))
	for _, a := range r.otherActives() {
		m := &MsgPrePrepare{baseline.Proposal{View: r.View, SN: sn, Batch: batch}}
		m.MAC = r.MAC(a, m.MACPayload("pb-pp", domain))
		r.Env.Send(a, m)
	}
}

func (r *Replica) onPrePrepare(from smr.NodeID, m *MsgPrePrepare) {
	if m.View != r.View || from != r.Leader() || !r.isActive() ||
		!r.VerifyMAC(from, m.MACPayload("pb-pp", domain), m.MAC) {
		return
	}
	if _, ok := r.log[m.SN]; ok {
		return
	}
	if !r.Cfg.SignedRequests || len(m.Batch.Reqs) == 0 {
		r.acceptPrePrepare(from, m)
		return
	}
	// A backup verifies the whole batch before voting. The completion
	// re-validates the view and the log slot, since other events
	// (including a view change) may interleave.
	if r.ppInFlight[m.SN] {
		return
	}
	r.ppInFlight[m.SN] = true
	view := r.View
	r.VerifyBatch(&m.Batch, func(ok bool) {
		delete(r.ppInFlight, m.SN)
		if _, dup := r.log[m.SN]; ok && r.View == view && !dup {
			r.acceptPrePrepare(from, m)
		}
	})
}

// acceptPrePrepare is the complete half of pre-prepare handling: the
// batch is authentic, so log it and vote.
func (r *Replica) acceptPrePrepare(from smr.NodeID, m *MsgPrePrepare) {
	r.log[m.SN] = &Entry{View: m.View, SN: m.SN, Batch: m.Batch}
	r.sn = max(r.sn, m.SN)
	d := domain.Digest(&m.Batch)
	r.vote(m.SN, r.ID, d)
	r.vote(m.SN, from, d) // the pre-prepare stands for the primary's commit
	for _, a := range r.otherActives() {
		c := &MsgCommit{View: r.View, SN: m.SN, D: d, From: r.ID}
		c.MAC = r.MAC(a, c.macPayload())
		r.Env.Send(a, c)
	}
	r.checkCommitted(m.SN, d)
}

func (r *Replica) onCommit(from smr.NodeID, m *MsgCommit) {
	if m.View != r.View || m.From != from || !r.isActive() || !r.VerifyMAC(from, m.macPayload(), m.MAC) {
		return
	}
	r.vote(m.SN, from, m.D)
	r.checkCommitted(m.SN, m.D)
}

func (r *Replica) vote(sn smr.SeqNum, from smr.NodeID, d crypto.Digest) {
	v := r.votes[sn]
	if v == nil {
		v = make(map[smr.NodeID]crypto.Digest)
		r.votes[sn] = v
	}
	v[from] = d
}

// checkCommitted is the quorum rule: an entry commits once all 2t+1
// actives voted for its digest.
func (r *Replica) checkCommitted(sn smr.SeqNum, d crypto.Digest) {
	if r.chosen[sn] {
		return
	}
	e, ok := r.log[sn]
	if !ok || domain.Digest(&e.Batch) != d {
		return
	}
	count := 0
	for _, vd := range r.votes[sn] {
		if vd == d {
			count++
		}
	}
	if count < 2*r.T+1 {
		return
	}
	r.chosen[sn] = true
	delete(r.votes, sn)
	r.Unwatch()
	r.execute()
}

func (r *Replica) execute() {
	for r.chosen[r.ex+1] {
		r.ex++
		r.Execute(r.log[r.ex], r.reply)
	}
}

// reply answers a client: the full payload from the primary, its
// digest from every other replica.
func (r *Replica) reply(client smr.NodeID, ts uint64, rep []byte) {
	m := &MsgReply{From: r.ID, View: r.View, TS: ts, RepD: crypto.Hash(rep)}
	if r.IsLeader() {
		m.Rep = rep
	}
	m.MAC = r.MAC(client, m.macPayload())
	r.Env.Send(client, m)
}

// ---------------------------------------------------------------------------
// View change (crash-fault-grade; see package comment): the kit's
// log transfer, at 2t+1 view-change messages
// ---------------------------------------------------------------------------

// announce sends our view-change message to the new primary first,
// then pushes the rest of the group into the view change as well.
func (r *Replica) announce(m *MsgViewChange) {
	r.Env.Send(r.Leader(), m)
	for _, id := range r.Others {
		if id != r.Leader() {
			r.Env.Send(id, m)
		}
	}
}

func (r *Replica) install(entries []Entry) {
	for i := range entries {
		e := &entries[i]
		r.log[e.SN] = e
		r.chosen[e.SN] = true
		r.sn = max(r.sn, e.SN)
	}
	r.votes = make(map[smr.SeqNum]map[smr.NodeID]crypto.Digest)
	r.execute()
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

// Client is a closed-loop PBFT client: it commits on t+1 matching
// replies (one of which carries the payload).
type Client struct {
	*baseline.Client

	votes  map[smr.NodeID]crypto.Digest
	rep    []byte
	repD   crypto.Digest
	hasRep bool
}

// NewClient builds a client.
func NewClient(id smr.NodeID, cfg Config) *Client {
	c := &Client{}
	c.Client = baseline.NewClient(id, cfg.WithDefaults(3), domain, c.accept)
	c.Begin = func() { c.votes, c.hasRep = make(map[smr.NodeID]crypto.Digest), false }
	return c
}

func (c *Client) accept(from smr.NodeID, msg smr.Message) ([]byte, bool) {
	m, ok := msg.(*MsgReply)
	if !ok || m.TS != c.TS() || m.From != from || !c.VerifyMAC(from, m.macPayload(), m.MAC) {
		return nil, false
	}
	c.SawView(m.View)
	c.votes[m.From] = m.RepD
	if m.Rep != nil && crypto.Hash(m.Rep) == m.RepD {
		c.rep, c.repD, c.hasRep = m.Rep, m.RepD, true
	}
	if !c.hasRep {
		return nil, false
	}
	count := 0
	for _, d := range c.votes {
		if d == c.repD {
			count++
		}
	}
	return c.rep, count >= c.T+1
}
