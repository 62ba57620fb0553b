// Package zyzzyva implements the Zyzzyva speculative BFT baseline of
// the XFT paper (Section 5.1.2, Figure 6b): the fastest BFT protocol
// that involves all n = 3t+1 replicas in the common case.
//
//	client → primary → ORDER-REQ to all 3t replicas
//	       → every replica executes speculatively and replies directly
//
// The client commits on 3t+1 matching speculative responses (fast
// path). With only 2t+1 ≤ matches < 3t+1 by the commit timer, the
// client sends a commit certificate and completes on 2t+1
// LOCAL-COMMIT acks (slow path). MACs authenticate all common-case
// messages; view changes are crash-fault-grade as in package pbft.
//
// Request intake, execution, the client core and the codec plumbing
// come from internal/baseline; this package is the speculative
// ordering, the client's fast/slow commit rule and the view change.
package zyzzyva

import (
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

const msgHeader = baseline.MsgHeader

// domain tags every Zyzzyva signature, digest and MAC payload.
var domain = baseline.NewDomain("zz-")

// The shared request, batch and log-entry types.
type (
	Request    = baseline.Request
	Batch      = baseline.Batch
	Entry      = baseline.Entry
	MsgRequest = baseline.MsgRequest
	// The view change is the kit's log transfer under this domain's tags.
	MsgViewChange = baseline.MsgViewChange
	MsgNewView    = baseline.MsgNewView
)

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

// MsgOrderReq is the primary's ordered request broadcast.
type MsgOrderReq struct {
	View    smr.View
	SN      smr.SeqNum
	History crypto.Digest // hash chain over ordered batches
	Batch   Batch
	MAC     crypto.MAC
}

// Type implements smr.Message.
func (m *MsgOrderReq) Type() string { return "order-req" }

// WireSize implements smr.Message.
func (m *MsgOrderReq) WireSize() int { return msgHeader + 16 + 32 + m.Batch.WireSize() + len(m.MAC) }

func (m *MsgOrderReq) macPayload() []byte {
	d := domain.Digest(&m.Batch)
	return wire.New(96).Str("zz-or").U64(uint64(m.View)).U64(uint64(m.SN)).Raw(m.History[:]).Raw(d[:]).Done()
}

// MsgSpecResponse is a replica's speculative response to the client.
type MsgSpecResponse struct {
	From    smr.NodeID
	View    smr.View
	SN      smr.SeqNum
	History crypto.Digest
	TS      uint64
	RepD    crypto.Digest
	Rep     []byte // payload only from the primary
	MAC     crypto.MAC
}

// Type implements smr.Message.
func (m *MsgSpecResponse) Type() string { return "spec-response" }

// WireSize implements smr.Message.
func (m *MsgSpecResponse) WireSize() int {
	return msgHeader + 32 + 64 + len(m.Rep) + len(m.MAC)
}

func (m *MsgSpecResponse) macPayload() []byte {
	return wire.New(96 + len(m.Rep)).Str("zz-sr").I64(int64(m.From)).U64(uint64(m.View)).
		U64(uint64(m.SN)).Raw(m.History[:]).U64(m.TS).Raw(m.RepD[:]).Bytes(m.Rep).Done()
}

// MsgCommitCert is the client's slow-path commit certificate: the set
// of matching speculative responses it gathered.
type MsgCommitCert struct {
	Client  smr.NodeID
	TS      uint64
	View    smr.View
	SN      smr.SeqNum
	History crypto.Digest
	Voters  []smr.NodeID
}

// Type implements smr.Message.
func (m *MsgCommitCert) Type() string { return "commit-cert" }

// WireSize implements smr.Message.
func (m *MsgCommitCert) WireSize() int { return msgHeader + 48 + 32 + 8*len(m.Voters) }

// MsgLocalCommit acknowledges a commit certificate.
type MsgLocalCommit struct {
	From smr.NodeID
	TS   uint64
	SN   smr.SeqNum
	MAC  crypto.MAC
}

// Type implements smr.Message.
func (m *MsgLocalCommit) Type() string { return "local-commit" }

// WireSize implements smr.Message.
func (m *MsgLocalCommit) WireSize() int { return msgHeader + 24 + len(m.MAC) }

func (m *MsgLocalCommit) macPayload() []byte {
	return wire.New(48).Str("zz-lc").I64(int64(m.From)).U64(m.TS).U64(uint64(m.SN)).Done()
}

// Config parameterizes replicas and clients: the shared baseline
// configuration plus the client's fast-path deadline.
type Config struct {
	baseline.Config
	// CommitTimeout is the client's fast-path deadline before it falls
	// back to the slow path.
	CommitTimeout time.Duration
}

func (c Config) withDefaults() Config {
	c.Config = c.Config.WithDefaults(3)
	if c.CommitTimeout == 0 {
		c.CommitTimeout = 500 * time.Millisecond
	}
	return c
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

// Replica is a Zyzzyva replica (smr.Node).
type Replica struct {
	*baseline.Core

	sn, ex  smr.SeqNum
	history crypto.Digest
	log     map[smr.SeqNum]*Entry
	// pendingOrder holds order-reqs that arrived (or finished
	// verifying) ahead of their turn; orInFlight marks those whose
	// client signatures a backup is still verifying (SignedRequests
	// only).
	pendingOrder map[smr.SeqNum]*MsgOrderReq
	orInFlight   map[smr.SeqNum]bool

	vc baseline.LogTransfer
}

// NewReplica builds a replica.
func NewReplica(id smr.NodeID, cfg Config, app smr.Application) *Replica {
	r := &Replica{
		log:          make(map[smr.SeqNum]*Entry),
		pendingOrder: make(map[smr.SeqNum]*MsgOrderReq),
		orInFlight:   make(map[smr.SeqNum]bool),
	}
	r.Core = baseline.NewCore(id, cfg.withDefaults().Config, domain, app, baseline.Hooks{
		Recv: r.onRecv, Propose: r.propose,
		Resend:  func(client smr.NodeID, ts uint64, rep []byte) { r.specReply(r.sn, client, ts, rep) },
		Suspect: func() { r.vc.Start(r.View + 1) },
	})
	r.vc = baseline.LogTransfer{Core: r.Core, Quorum: 2*r.T + 1, Log: r.log, Announce: r.announce, Install: r.install}
	return r
}

func (r *Replica) onRecv(from smr.NodeID, msg smr.Message) {
	switch m := msg.(type) {
	case *MsgOrderReq:
		r.onOrderReq(from, m)
	case *MsgCommitCert:
		r.onCommitCert(from, m)
	default:
		r.vc.Recv(from, msg)
	}
}

// extend returns the history hash chain extended by batch b.
func (r *Replica) extend(b *Batch) crypto.Digest {
	d := domain.Digest(b)
	return crypto.HashParts([]byte("zz-hist"), r.history[:], d[:])
}

func (r *Replica) propose(batch Batch) {
	r.sn++
	sn := r.sn
	r.history = r.extend(&batch)
	r.log[sn] = &Entry{View: r.View, SN: sn, Batch: batch}
	for _, id := range r.Others {
		m := &MsgOrderReq{View: r.View, SN: sn, History: r.history, Batch: batch}
		m.MAC = r.MAC(id, m.macPayload())
		r.Env.Send(id, m)
	}
	r.executeSpec(sn)
}

func (r *Replica) onOrderReq(from smr.NodeID, m *MsgOrderReq) {
	if m.View != r.View || from != r.Leader() || !r.VerifyMAC(from, m.macPayload(), m.MAC) {
		return
	}
	if !r.Cfg.SignedRequests || len(m.Batch.Reqs) == 0 {
		r.acceptOrderReq(m)
		return
	}
	// Batch-verify the clients' request signatures before speculatively
	// executing. A correct primary forwards only verified requests, so
	// one bad signature rejects the whole order-req. The completion
	// re-checks the view — order-reqs are view-specific — and
	// acceptOrderReq's sequential drain through pendingOrder tolerates
	// out-of-order completions.
	if r.orInFlight[m.SN] {
		return
	}
	r.orInFlight[m.SN] = true
	view := r.View
	r.VerifyBatch(&m.Batch, func(ok bool) {
		delete(r.orInFlight, m.SN)
		if ok && r.View == view {
			r.acceptOrderReq(m)
		}
	})
}

// acceptOrderReq is the complete half of order-req handling: it files
// the proposal and drains the in-order prefix speculatively.
func (r *Replica) acceptOrderReq(m *MsgOrderReq) {
	r.pendingOrder[m.SN] = m
	for {
		next, ok := r.pendingOrder[r.sn+1]
		if !ok {
			return
		}
		delete(r.pendingOrder, r.sn+1)
		want := r.extend(&next.Batch)
		if want != next.History {
			return // primary's history diverged; a real deployment would view change
		}
		r.sn++
		r.history = want
		r.log[r.sn] = &Entry{View: next.View, SN: r.sn, Batch: next.Batch}
		r.executeSpec(r.sn)
		r.Unwatch()
	}
}

// executeSpec speculatively executes entry sn (which must be r.ex+1)
// and answers all its clients.
func (r *Replica) executeSpec(sn smr.SeqNum) {
	if sn != r.ex+1 {
		return
	}
	r.ex = sn
	r.Execute(r.log[sn], func(client smr.NodeID, ts uint64, rep []byte) { r.specReply(sn, client, ts, rep) })
}

// specReply answers a client directly from every replica: the full
// payload from the primary, its digest from the backups.
func (r *Replica) specReply(sn smr.SeqNum, client smr.NodeID, ts uint64, rep []byte) {
	m := &MsgSpecResponse{From: r.ID, View: r.View, SN: sn, History: r.history, TS: ts, RepD: crypto.Hash(rep)}
	if r.IsLeader() {
		m.Rep = rep
	}
	m.MAC = r.MAC(client, m.macPayload())
	r.Env.Send(client, m)
}

func (r *Replica) onCommitCert(from smr.NodeID, m *MsgCommitCert) {
	// The replica acknowledges certificates for entries it has
	// speculatively executed with a matching history.
	if m.SN > r.ex {
		return
	}
	ack := &MsgLocalCommit{From: r.ID, TS: m.TS, SN: m.SN}
	ack.MAC = r.MAC(m.Client, ack.macPayload())
	r.Env.Send(m.Client, ack)
}

// ---------------------------------------------------------------------------
// View change (crash-fault-grade): the kit's log transfer, at 2t+1
// view-change messages
// ---------------------------------------------------------------------------

// announce sends our view-change message to every other replica.
func (r *Replica) announce(m *MsgViewChange) {
	for _, id := range r.Others {
		r.Env.Send(id, m)
	}
}

func (r *Replica) install(entries []Entry) {
	r.pendingOrder = make(map[smr.SeqNum]*MsgOrderReq)
	r.history = crypto.Digest{}
	var maxSN smr.SeqNum
	for i := range entries {
		e := &entries[i]
		r.history = r.extend(&e.Batch)
		r.log[e.SN] = e
		maxSN = max(maxSN, e.SN)
	}
	r.sn = max(r.sn, maxSN)
	for r.ex < maxSN {
		r.executeSpec(r.ex + 1)
	}
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

// Client is a closed-loop Zyzzyva client with fast and slow paths.
type Client struct {
	*baseline.Client
	commitTimeout time.Duration

	// FastPath/SlowPath split Committed by how the request completed.
	FastPath, SlowPath uint64

	// Per-request state, reset by begin.
	votes       map[smr.NodeID]*MsgSpecResponse
	acks        map[smr.NodeID]bool
	commitTimer smr.TimerID
	commitSet   bool
	certSent    bool
	rep         []byte
	hasRep      bool
}

// NewClient builds a client.
func NewClient(id smr.NodeID, cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{commitTimeout: cfg.CommitTimeout}
	c.Client = baseline.NewClient(id, cfg.Config, domain, c.accept)
	c.Begin = c.begin
	return c
}

func (c *Client) begin() {
	c.votes = make(map[smr.NodeID]*MsgSpecResponse)
	c.acks = make(map[smr.NodeID]bool)
	c.commitSet, c.certSent, c.hasRep = false, false, false
}

// Step implements smr.Node: the commit timer is Zyzzyva's own;
// everything else is the shared client's.
func (c *Client) Step(ev smr.Event) {
	if e, ok := ev.(smr.TimerFired); ok && c.commitSet && e.ID == c.commitTimer {
		c.trySlowPath()
		return
	}
	c.Client.Step(ev)
}

// accept is the reply-acceptance rule: 3t+1 matching speculative
// responses (fast path), or 2t+1 local-commit acks for the commit
// certificate (slow path).
func (c *Client) accept(from smr.NodeID, msg smr.Message) ([]byte, bool) {
	done := false
	switch m := msg.(type) {
	case *MsgSpecResponse:
		done = c.onSpecResponse(from, m)
	case *MsgLocalCommit:
		done = c.onLocalCommit(from, m)
	}
	if done && c.commitSet {
		c.Env.CancelTimer(c.commitTimer)
		c.commitSet = false
	}
	return c.rep, done
}

func (c *Client) onSpecResponse(from smr.NodeID, m *MsgSpecResponse) bool {
	if m.TS != c.TS() || m.From != from || !c.VerifyMAC(from, m.macPayload(), m.MAC) {
		return false
	}
	c.SawView(m.View)
	c.votes[from] = m
	if m.Rep != nil && crypto.Hash(m.Rep) == m.RepD {
		c.rep, c.hasRep = m.Rep, true
	}
	// Fast path: all 3t+1 responses match.
	voters, _ := c.matching()
	if len(voters) == c.N && c.hasRep {
		c.FastPath++
		return true
	}
	// Arm the slow-path timer once a majority certificate is possible.
	if len(voters) >= 2*c.T+1 && !c.commitSet {
		c.commitSet = true
		c.commitTimer = c.Env.SetTimer(c.commitTimeout, "commit")
	}
	return false
}

// matching returns the largest set of voters agreeing on (view, sn,
// history, repD).
func (c *Client) matching() ([]smr.NodeID, *MsgSpecResponse) {
	type key struct {
		v  smr.View
		sn smr.SeqNum
		h  crypto.Digest
		d  crypto.Digest
	}
	groups := make(map[key][]smr.NodeID)
	var best []smr.NodeID
	for id, m := range c.votes {
		k := key{m.View, m.SN, m.History, m.RepD}
		groups[k] = append(groups[k], id)
		if len(groups[k]) > len(best) {
			best = groups[k]
		}
	}
	if best == nil {
		return nil, nil
	}
	return best, c.votes[best[0]]
}

func (c *Client) trySlowPath() {
	if c.certSent {
		return
	}
	voters, sample := c.matching()
	if len(voters) < 2*c.T+1 || !c.hasRep {
		return
	}
	c.certSent = true
	sort.Slice(voters, func(i, j int) bool { return voters[i] < voters[j] })
	cert := &MsgCommitCert{Client: c.ID, TS: c.TS(), View: sample.View, SN: sample.SN, History: sample.History, Voters: voters}
	for i := 0; i < c.N; i++ {
		c.Env.Send(smr.NodeID(i), cert)
	}
}

func (c *Client) onLocalCommit(from smr.NodeID, m *MsgLocalCommit) bool {
	if m.TS != c.TS() || m.From != from || !c.VerifyMAC(from, m.macPayload(), m.MAC) {
		return false
	}
	c.acks[from] = true
	if len(c.acks) >= 2*c.T+1 && c.hasRep {
		c.SlowPath++
		return true
	}
	return false
}
