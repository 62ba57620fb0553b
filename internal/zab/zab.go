// Package zab implements a Zab-style primary-backup atomic broadcast
// (Junqueira et al., DSN 2011) — the protocol built into ZooKeeper and
// the "native" baseline of the XFT paper's Figure 10.
//
// n = 2t+1; the leader proposes to *all* 2t followers and commits on
// majority acknowledgment:
//
//	client → leader → PROPOSE to all followers → ACK (majority)
//	       → COMMIT to all → reply
//
// The key contrast to XPaxos exploited in Section 5.5: the Zab leader
// ships every request's full payload to 2t replicas, while the XPaxos
// primary ships it to only t followers — so with the leader's WAN
// egress as the bottleneck, XPaxos sustains roughly twice Zab's peak
// throughput at t = 1.
//
// Request intake, execution, the client and the codec plumbing come
// from internal/baseline, whose View is Zab's epoch and whose sequence
// number is the zxid; this package is the broadcast and recovery logic.
package zab

import (
	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

const msgHeader = baseline.MsgHeader

// domain tags every Zab signature, digest and MAC payload.
var domain = baseline.NewDomain("zab-")

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

// MsgPropose is the leader's proposal (full payload to every follower).
type MsgPropose struct{ baseline.Proposal }

// Type implements smr.Message.
func (m *MsgPropose) Type() string { return "propose" }

// MsgAck acknowledges a proposal.
type MsgAck struct {
	Epoch smr.View
	ZXID  smr.SeqNum
	From  smr.NodeID
	MAC   crypto.MAC
}

// Type implements smr.Message.
func (m *MsgAck) Type() string { return "ack" }

// WireSize implements smr.Message.
func (m *MsgAck) WireSize() int { return msgHeader + 24 + len(m.MAC) }

func (m *MsgAck) macPayload() []byte {
	return wire.New(48).Str("zab-ak").U64(uint64(m.Epoch)).U64(uint64(m.ZXID)).I64(int64(m.From)).Done()
}

// MsgCommit finalizes a proposal (digest-only).
type MsgCommit struct {
	Epoch smr.View
	ZXID  smr.SeqNum
	MAC   crypto.MAC
}

// Type implements smr.Message.
func (m *MsgCommit) Type() string { return "zab-commit" }

// WireSize implements smr.Message.
func (m *MsgCommit) WireSize() int { return msgHeader + 16 + len(m.MAC) }

func (m *MsgCommit) macPayload() []byte {
	return wire.New(48).Str("zab-cm").U64(uint64(m.Epoch)).U64(uint64(m.ZXID)).Done()
}

// MsgReply answers the client.
type MsgReply struct {
	From smr.NodeID
	TS   uint64
	Rep  []byte
	MAC  crypto.MAC
}

// Type implements smr.Message.
func (m *MsgReply) Type() string { return "reply" }

// WireSize implements smr.Message.
func (m *MsgReply) WireSize() int { return msgHeader + 16 + len(m.Rep) + len(m.MAC) }

func (m *MsgReply) macPayload() []byte {
	return wire.New(48 + len(m.Rep)).Str("zab-rp").I64(int64(m.From)).U64(m.TS).Bytes(m.Rep).Done()
}

// MsgEpochChange transfers a follower's history to a prospective
// leader (simplified recovery).
type MsgEpochChange struct {
	Epoch   smr.View
	From    smr.NodeID
	Entries []Entry
}

// Type implements smr.Message.
func (m *MsgEpochChange) Type() string { return "epoch-change" }

// Bulk marks epoch-change history transfer as background traffic: a
// prospective leader needs t+1 of them, and followers re-send on the
// progress timer, so shedding one under pressure only delays recovery.
func (m *MsgEpochChange) Bulk() bool { return true }

// WireSize implements smr.Message.
func (m *MsgEpochChange) WireSize() int { return msgHeader + 16 + baseline.EntriesWireSize(m.Entries) }

// MsgNewEpoch installs the new epoch's history.
type MsgNewEpoch struct {
	Epoch   smr.View
	Entries []Entry
	MAC     crypto.MAC
}

// Type implements smr.Message.
func (m *MsgNewEpoch) Type() string { return "new-epoch" }

// Bulk marks the log-carrying epoch installation as background
// traffic: followers that miss it stay in the old epoch and trigger a
// fresh epoch change via the progress timer.
func (m *MsgNewEpoch) Bulk() bool { return true }

// WireSize implements smr.Message.
func (m *MsgNewEpoch) WireSize() int {
	return msgHeader + 8 + len(m.MAC) + baseline.EntriesWireSize(m.Entries)
}

func (m *MsgNewEpoch) macPayload() []byte {
	w := wire.New(64).Str("zab-ne").U64(uint64(m.Epoch))
	for i := range m.Entries {
		e := &m.Entries[i]
		d := domain.Digest(&e.Batch)
		w.U64(uint64(e.SN)).Raw(d[:])
	}
	return w.Done()
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

// Replica is a Zab replica (smr.Node).
type Replica struct {
	*baseline.Core

	zxid, ex smr.SeqNum
	log      map[smr.SeqNum]*Entry
	acks     map[smr.SeqNum]map[smr.NodeID]bool
	chosen   map[smr.SeqNum]bool

	ecs map[smr.NodeID]*MsgEpochChange
}

// NewReplica builds a Zab replica.
func NewReplica(id smr.NodeID, cfg Config, app smr.Application) *Replica {
	r := &Replica{
		log:    make(map[smr.SeqNum]*Entry),
		acks:   make(map[smr.SeqNum]map[smr.NodeID]bool),
		chosen: make(map[smr.SeqNum]bool),
		ecs:    make(map[smr.NodeID]*MsgEpochChange),
	}
	r.Core = baseline.NewCore(id, cfg.WithDefaults(2), domain, app, baseline.Hooks{
		Recv: r.onRecv, Propose: r.propose, Resend: r.reply,
		Suspect: func() { r.startEpochChange(r.View + 1) },
	})
	return r
}

func (r *Replica) onRecv(from smr.NodeID, msg smr.Message) {
	switch m := msg.(type) {
	case *MsgPropose:
		r.onPropose(from, m)
	case *MsgAck:
		r.onAck(from, m)
	case *MsgCommit:
		r.onCommit(from, m)
	case *MsgEpochChange:
		r.onEpochChange(from, m)
	case *MsgNewEpoch:
		r.onNewEpoch(from, m)
	}
}

func (r *Replica) propose(batch Batch) {
	r.zxid++
	zxid := r.zxid
	r.log[zxid] = &Entry{View: r.View, SN: zxid, Batch: batch}
	r.acks[zxid] = map[smr.NodeID]bool{r.ID: true}
	// Full payload to every follower — the Zab leader-bandwidth
	// bottleneck of Section 5.5.
	for _, id := range r.Others {
		m := &MsgPropose{baseline.Proposal{View: r.View, SN: zxid, Batch: batch}}
		m.MAC = r.MAC(id, m.MACPayload("zab-pr", domain))
		r.Env.Send(id, m)
	}
}

func (r *Replica) onPropose(from smr.NodeID, m *MsgPropose) {
	if m.View < r.View || from != r.LeaderOf(m.View) || !r.VerifyMAC(from, m.MACPayload("zab-pr", domain), m.MAC) {
		return
	}
	r.Adopt(m.View)
	r.log[m.SN] = &Entry{View: m.View, SN: m.SN, Batch: m.Batch}
	r.zxid = max(r.zxid, m.SN)
	ack := &MsgAck{Epoch: m.View, ZXID: m.SN, From: r.ID}
	ack.MAC = r.MAC(from, ack.macPayload())
	r.Env.Send(from, ack)
}

// onAck holds the quorum rule: a proposal commits once t+1 replicas
// (the leader included) acknowledged it.
func (r *Replica) onAck(from smr.NodeID, m *MsgAck) {
	if !r.IsLeader() || m.Epoch != r.View || m.From != from || !r.VerifyMAC(from, m.macPayload(), m.MAC) {
		return
	}
	acks := r.acks[m.ZXID]
	if acks == nil {
		acks = make(map[smr.NodeID]bool)
		r.acks[m.ZXID] = acks
	}
	acks[from] = true
	if r.chosen[m.ZXID] || len(acks) < r.T+1 {
		return
	}
	r.chosen[m.ZXID] = true
	delete(r.acks, m.ZXID)
	for _, id := range r.Others {
		c := &MsgCommit{Epoch: r.View, ZXID: m.ZXID}
		c.MAC = r.MAC(id, c.macPayload())
		r.Env.Send(id, c)
	}
	r.execute()
}

func (r *Replica) onCommit(from smr.NodeID, m *MsgCommit) {
	if from != r.LeaderOf(m.Epoch) || m.Epoch < r.View || !r.VerifyMAC(from, m.macPayload(), m.MAC) {
		return
	}
	if _, ok := r.log[m.ZXID]; !ok {
		return
	}
	r.chosen[m.ZXID] = true
	r.Unwatch()
	r.execute()
}

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
	m := &MsgReply{From: r.ID, TS: ts, Rep: rep}
	m.MAC = r.MAC(client, m.macPayload())
	r.Env.Send(client, m)
}

// ---------------------------------------------------------------------------
// Epoch change (simplified recovery)
// ---------------------------------------------------------------------------

func (r *Replica) startEpochChange(e smr.View) {
	if e < r.View || (e == r.View && r.Electing) {
		return
	}
	r.View = e
	r.Electing = true
	r.ecs = make(map[smr.NodeID]*MsgEpochChange)
	m := &MsgEpochChange{Epoch: e, From: r.ID, Entries: baseline.SortedEntries(r.log)}
	if r.IsLeader() {
		r.addEC(m)
		return
	}
	for _, id := range r.Others {
		r.Env.Send(id, m)
	}
	r.Rewatch()
}

func (r *Replica) onEpochChange(from smr.NodeID, m *MsgEpochChange) {
	if m.From != from || m.Epoch < r.View {
		return
	}
	if m.Epoch > r.View || !r.Electing {
		r.startEpochChange(m.Epoch)
	}
	if r.IsLeader() && m.Epoch == r.View {
		r.addEC(m)
	}
}

// addEC completes recovery at t+1 histories: merge them and install
// the result everywhere.
func (r *Replica) addEC(m *MsgEpochChange) {
	r.ecs[m.From] = m
	if len(r.ecs) < r.T+1 {
		return
	}
	logs := make([][]Entry, 0, len(r.ecs))
	for _, ec := range r.ecs {
		logs = append(logs, ec.Entries)
	}
	entries := baseline.MergeEntries(r.View, logs)
	for _, id := range r.Others {
		nm := &MsgNewEpoch{Epoch: r.View, Entries: entries}
		nm.MAC = r.MAC(id, nm.macPayload())
		r.Env.Send(id, nm)
	}
	r.installEpoch(entries)
}

func (r *Replica) onNewEpoch(from smr.NodeID, m *MsgNewEpoch) {
	if from != r.LeaderOf(m.Epoch) || m.Epoch < r.View || !r.VerifyMAC(from, m.macPayload(), m.MAC) {
		return
	}
	r.View = m.Epoch
	r.installEpoch(m.Entries)
}

func (r *Replica) installEpoch(entries []Entry) {
	r.Electing = false
	r.Unwatch()
	r.ecs = make(map[smr.NodeID]*MsgEpochChange)
	for i := range entries {
		e := &entries[i]
		r.log[e.SN] = e
		r.chosen[e.SN] = true
		r.zxid = max(r.zxid, e.SN)
	}
	r.acks = make(map[smr.SeqNum]map[smr.NodeID]bool)
	r.execute()
	r.Flush()
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

// NewClient builds a closed-loop Zab client: the leader's reply alone
// completes a request.
func NewClient(id smr.NodeID, cfg Config) *Client {
	var c *Client
	c = baseline.NewClient(id, cfg.WithDefaults(2), domain, func(from smr.NodeID, msg smr.Message) ([]byte, bool) {
		m, ok := msg.(*MsgReply)
		if !ok || m.TS != c.TS() || m.From != from || !c.VerifyMAC(from, m.macPayload(), m.MAC) {
			return nil, false
		}
		// Replies carry no epoch; the smallest epoch the replier leads
		// is enough to route the next request to it.
		c.SawView(smr.View(int(from) % c.N))
		return m.Rep, true
	})
	return c
}
