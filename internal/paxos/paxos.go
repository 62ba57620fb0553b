// Package paxos implements the WAN-optimized crash-fault-tolerant
// Multi-Paxos variant the XFT paper benchmarks against (Section 5.1.2,
// Figure 6c), inspired by Megastore/MDCC-style deployments.
//
// n = 2t+1 replicas; a stable leader runs only phase 2 in the common
// case and involves just t+1 replicas (itself plus t accept-quorum
// members), mirroring XPaxos's active/passive split:
//
//	client → leader → followers (ACCEPT) → leader (ACCEPTED) → client
//
// All messages carry MACs only — this is the CFT baseline; it provides
// no protection against non-crash faults. Leader failure triggers a
// classic view change: the new leader collects PROMISE messages from a
// majority, adopts the highest-numbered accepted values, and
// re-proposes them.
//
// Request intake, execution, the client and the codec plumbing come
// from internal/baseline; this package is the agreement logic.
package paxos

import (
	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

const msgHeader = baseline.MsgHeader

// domain tags every Paxos signature, digest and MAC payload.
var domain = baseline.NewDomain("px-")

// The shared request, batch, log-entry, configuration and client types.
type (
	Request    = baseline.Request
	Batch      = baseline.Batch
	Entry      = baseline.Entry
	MsgRequest = baseline.MsgRequest
	Config     = baseline.Config
	Client     = baseline.Client
)

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

// MsgAccept is phase 2a: the leader's proposal.
type MsgAccept struct{ baseline.Proposal }

// Type implements smr.Message.
func (m *MsgAccept) Type() string { return "accept" }

// MsgAccepted is phase 2b: a follower's acknowledgment.
type MsgAccepted struct {
	View smr.View
	SN   smr.SeqNum
	D    crypto.Digest
	From smr.NodeID
	MAC  crypto.MAC
}

// Type implements smr.Message.
func (m *MsgAccepted) Type() string { return "accepted" }

// WireSize implements smr.Message.
func (m *MsgAccepted) WireSize() int { return msgHeader + 24 + 32 + len(m.MAC) }

func (m *MsgAccepted) macPayload() []byte {
	return wire.New(64).Str("px-acd").U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.D[:]).I64(int64(m.From)).Done()
}

// MsgCommit tells quorum members an entry is chosen. It is digest-only:
// the members already hold the batch from the accept phase, so the
// leader's egress stays at t full copies per batch (the property the
// paper's Figure 10 argument rests on).
type MsgCommit struct {
	View smr.View
	SN   smr.SeqNum
	D    crypto.Digest
	MAC  crypto.MAC
}

// Type implements smr.Message.
func (m *MsgCommit) Type() string { return "px-commit" }

// WireSize implements smr.Message.
func (m *MsgCommit) WireSize() int { return msgHeader + 16 + 32 + len(m.MAC) }

func (m *MsgCommit) macPayload() []byte {
	return wire.New(64).Str("px-cmt").U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.D[:]).Done()
}

// MsgLearn lazily replicates a chosen batch to the replicas outside
// the accept quorum (the analogue of XPaxos lazy replication, sent by
// the first quorum member rather than the leader).
type MsgLearn struct{ baseline.Proposal }

// Type implements smr.Message.
func (m *MsgLearn) Type() string { return "px-learn" }

// Bulk implements smr.BulkMessage: lazy replication is background
// traffic — the accept quorum already holds the batch, so a transport
// under pressure may shed learn messages and let the out-of-quorum
// replicas catch up on the next one.
func (m *MsgLearn) Bulk() bool { return true }

// MsgReply answers the client.
type MsgReply struct {
	From smr.NodeID
	View smr.View
	TS   uint64
	Rep  []byte
	MAC  crypto.MAC
}

// Type implements smr.Message.
func (m *MsgReply) Type() string { return "reply" }

// WireSize implements smr.Message.
func (m *MsgReply) WireSize() int { return msgHeader + 16 + len(m.Rep) + len(m.MAC) }

func (m *MsgReply) macPayload() []byte {
	return wire.New(48 + len(m.Rep)).Str("px-rep").I64(int64(m.From)).U64(uint64(m.View)).U64(m.TS).Bytes(m.Rep).Done()
}

// MsgPrepare is phase 1a for view v.
type MsgPrepare struct {
	View smr.View
	From smr.NodeID
}

// Type implements smr.Message.
func (m *MsgPrepare) Type() string { return "px-prepare" }

// WireSize implements smr.Message.
func (m *MsgPrepare) WireSize() int { return msgHeader + 16 }

// MsgPromise is phase 1b: accepted values above the checkpoint.
type MsgPromise struct {
	View     smr.View
	From     smr.NodeID
	Executed smr.SeqNum
	Accepted []Entry
}

// Type implements smr.Message.
func (m *MsgPromise) Type() string { return "px-promise" }

// WireSize implements smr.Message.
func (m *MsgPromise) WireSize() int { return msgHeader + 24 + baseline.EntriesWireSize(m.Accepted) }

// Bulk implements smr.BulkMessage: a promise carries the follower's
// whole accepted log (state transfer). Shedding one under queue
// pressure is safe — the new leader only needs t+1 promises, and the
// election retries through the progress timer if it stalls.
func (m *MsgPromise) Bulk() bool { return true }

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

// Replica is a Paxos replica (smr.Node).
type Replica struct {
	*baseline.Core

	sn, ex smr.SeqNum
	log    map[smr.SeqNum]*Entry // accepted values
	chosen map[smr.SeqNum]bool
	acks   map[smr.SeqNum]map[smr.NodeID]bool

	promises map[smr.NodeID]*MsgPromise // leader election
}

// NewReplica builds a Paxos replica.
func NewReplica(id smr.NodeID, cfg Config, app smr.Application) *Replica {
	r := &Replica{
		log:      make(map[smr.SeqNum]*Entry),
		chosen:   make(map[smr.SeqNum]bool),
		acks:     make(map[smr.SeqNum]map[smr.NodeID]bool),
		promises: make(map[smr.NodeID]*MsgPromise),
	}
	r.Core = baseline.NewCore(id, cfg.WithDefaults(2), domain, app, baseline.Hooks{
		Recv: r.onRecv, Propose: r.propose, Resend: r.reply,
		Suspect: func() { r.elect(r.View + 1) },
	})
	return r
}

// quorum returns the t accept-quorum followers of the current view:
// the t replicas after the leader in ring order.
func (r *Replica) quorum() []smr.NodeID {
	out := make([]smr.NodeID, 0, r.T)
	for i := 1; i <= r.T; i++ {
		out = append(out, smr.NodeID((int(r.Leader())+i)%r.N))
	}
	return out
}

func (r *Replica) onRecv(from smr.NodeID, msg smr.Message) {
	switch m := msg.(type) {
	case *MsgAccept:
		r.onAccept(from, m)
	case *MsgAccepted:
		r.onAccepted(from, m)
	case *MsgCommit:
		r.onCommit(from, m)
	case *MsgLearn:
		r.onLearn(from, m)
	case *MsgPrepare:
		r.onPrepare(from, m)
	case *MsgPromise:
		r.onPromise(from, m)
	}
}

func (r *Replica) propose(batch Batch) {
	r.sn++
	e := &Entry{View: r.View, SN: r.sn, Batch: batch}
	r.log[e.SN] = e
	r.sendAccepts(e)
	r.checkChosen(e.SN)
}

// sendAccepts opens phase 2 for e with the leader's own vote.
func (r *Replica) sendAccepts(e *Entry) {
	r.acks[e.SN] = map[smr.NodeID]bool{r.ID: true}
	for _, f := range r.quorum() {
		m := &MsgAccept{baseline.Proposal{View: r.View, SN: e.SN, Batch: e.Batch}}
		m.MAC = r.MAC(f, m.MACPayload("px-acc", domain))
		r.Env.Send(f, m)
	}
}

// accept records e unless the slot already holds a value from a later
// view.
func (r *Replica) accept(e *Entry) {
	if cur, ok := r.log[e.SN]; !ok || cur.View <= e.View {
		r.log[e.SN] = e
	}
	r.sn = max(r.sn, e.SN)
}

func (r *Replica) onAccept(from smr.NodeID, m *MsgAccept) {
	if m.View < r.View || from != r.LeaderOf(m.View) || !r.VerifyMAC(from, m.MACPayload("px-acc", domain), m.MAC) {
		return
	}
	r.Adopt(m.View)
	r.accept(&Entry{View: m.View, SN: m.SN, Batch: m.Batch})
	ack := &MsgAccepted{View: m.View, SN: m.SN, D: domain.Digest(&m.Batch), From: r.ID}
	ack.MAC = r.MAC(from, ack.macPayload())
	r.Env.Send(from, ack)
}

func (r *Replica) onAccepted(from smr.NodeID, m *MsgAccepted) {
	if !r.IsLeader() || m.View != r.View || m.From != from || !r.VerifyMAC(from, m.macPayload(), m.MAC) {
		return
	}
	e, ok := r.log[m.SN]
	if !ok || domain.Digest(&e.Batch) != m.D {
		return
	}
	acks := r.acks[m.SN]
	if acks == nil {
		acks = make(map[smr.NodeID]bool)
		r.acks[m.SN] = acks
	}
	acks[from] = true
	r.checkChosen(m.SN)
}

// checkChosen is the quorum rule: an entry is chosen once t+1 replicas
// (the leader included) accepted it.
func (r *Replica) checkChosen(sn smr.SeqNum) {
	if r.chosen[sn] || len(r.acks[sn]) < r.T+1 {
		return
	}
	r.chosen[sn] = true
	delete(r.acks, sn)
	r.execute()
	// Digest-only commit to the quorum members.
	e := r.log[sn]
	for _, id := range r.quorum() {
		m := &MsgCommit{View: e.View, SN: sn, D: domain.Digest(&e.Batch)}
		m.MAC = r.MAC(id, m.macPayload())
		r.Env.Send(id, m)
	}
}

func (r *Replica) onCommit(from smr.NodeID, m *MsgCommit) {
	if !r.VerifyMAC(from, m.macPayload(), m.MAC) || from != r.LeaderOf(m.View) {
		return
	}
	e, ok := r.log[m.SN]
	if !ok || domain.Digest(&e.Batch) != m.D {
		return
	}
	r.Adopt(m.View)
	if r.chosen[m.SN] {
		return
	}
	r.chosen[m.SN] = true
	r.sn = max(r.sn, m.SN)
	r.Unwatch()
	r.execute()
	// The first quorum member lazily replicates the full batch to the
	// replicas outside the quorum.
	members := r.quorum()
	if len(members) == 0 || members[0] != r.ID {
		return
	}
	in := map[smr.NodeID]bool{r.Leader(): true}
	for _, qm := range members {
		in[qm] = true
	}
	for _, id := range r.Others {
		if in[id] {
			continue
		}
		lm := &MsgLearn{baseline.Proposal{View: m.View, SN: m.SN, Batch: e.Batch}}
		lm.MAC = r.MAC(id, lm.MACPayload("px-lrn", domain))
		r.Env.Send(id, lm)
	}
}

func (r *Replica) onLearn(from smr.NodeID, m *MsgLearn) {
	if !r.VerifyMAC(from, m.MACPayload("px-lrn", domain), m.MAC) {
		return
	}
	r.Adopt(m.View)
	r.accept(&Entry{View: m.View, SN: m.SN, Batch: m.Batch})
	r.chosen[m.SN] = true
	r.execute()
}

// execute applies contiguously chosen entries.
func (r *Replica) execute() {
	for r.chosen[r.ex+1] {
		r.ex++
		r.Execute(r.log[r.ex], r.reply)
	}
}

// reply answers a client; only the leader does.
func (r *Replica) reply(client smr.NodeID, ts uint64, rep []byte) {
	if !r.IsLeader() {
		return
	}
	m := &MsgReply{From: r.ID, View: r.View, TS: ts, Rep: rep}
	m.MAC = r.MAC(client, m.macPayload())
	r.Env.Send(client, m)
}

// ---------------------------------------------------------------------------
// Leader election (phase 1)
// ---------------------------------------------------------------------------

func (r *Replica) elect(v smr.View) {
	if v < r.View || (v == r.View && r.Electing) {
		return
	}
	r.View = v
	r.Electing = true
	r.promises = make(map[smr.NodeID]*MsgPromise)
	if !r.IsLeader() {
		// Notify the would-be leader so it runs phase 1, and watch for
		// the election to finish.
		r.Env.Send(r.Leader(), &MsgPrepare{View: v, From: r.ID})
		r.Rewatch()
		return
	}
	for _, id := range r.Others {
		r.Env.Send(id, &MsgPrepare{View: v, From: r.ID})
	}
	r.addPromise(r.makePromise(v))
}

func (r *Replica) makePromise(v smr.View) *MsgPromise {
	return &MsgPromise{View: v, From: r.ID, Executed: r.ex, Accepted: baseline.SortedEntries(r.log)}
}

func (r *Replica) onPrepare(from smr.NodeID, m *MsgPrepare) {
	if m.View < r.View {
		return
	}
	if r.LeaderOf(m.View) == r.ID {
		// A majority nudges us into leading the view.
		if m.View > r.View || !r.Electing {
			r.elect(m.View)
		}
		return
	}
	if m.View > r.View || from == r.LeaderOf(m.View) {
		r.View = m.View
		r.Electing = true
		r.Env.Send(r.Leader(), r.makePromise(m.View))
	}
}

func (r *Replica) onPromise(from smr.NodeID, m *MsgPromise) {
	if r.Electing && m.View == r.View && r.IsLeader() {
		r.addPromise(m)
	}
}

// addPromise completes the election at t+1 promises: adopt the
// highest-view accepted value per slot and re-propose whatever is not
// already chosen.
func (r *Replica) addPromise(m *MsgPromise) {
	r.promises[m.From] = m
	if len(r.promises) < r.T+1 {
		return
	}
	logs := make([][]Entry, 0, len(r.promises))
	for _, p := range r.promises {
		logs = append(logs, p.Accepted)
	}
	merged := baseline.MergeEntries(r.View, logs)
	r.Electing = false
	r.promises = make(map[smr.NodeID]*MsgPromise)
	r.sn = smr.SeqNum(len(merged))
	for i := range merged {
		if e := &merged[i]; !r.chosen[e.SN] {
			r.log[e.SN] = e
			r.sendAccepts(e)
		}
	}
	r.Flush()
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

// NewClient builds a closed-loop Paxos client: the leader's reply
// alone completes a request.
func NewClient(id smr.NodeID, cfg Config) *Client {
	var c *Client
	c = baseline.NewClient(id, cfg.WithDefaults(2), domain, func(from smr.NodeID, msg smr.Message) ([]byte, bool) {
		m, ok := msg.(*MsgReply)
		if !ok || m.TS != c.TS() || m.From != from || !c.VerifyMAC(from, m.macPayload(), m.MAC) {
			return nil, false
		}
		c.SawView(m.View)
		return m.Rep, true
	})
	return c
}
