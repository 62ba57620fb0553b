package xpaxos

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// ClientConfig parameterizes a client.
type ClientConfig struct {
	N, T  int
	Suite crypto.Suite
	// RequestTimeout is timer_c (Algorithm 4); defaults to 4Δ with the
	// paper's Δ when zero.
	RequestTimeout time.Duration
	// Window is the maximum number of requests the client may keep
	// outstanding at once. The default 1 is the paper's closed-loop
	// client: each request commits before the next is issued. Larger
	// windows make the client open-loop — Invoke may be called again
	// before earlier requests commit — which exercises the server
	// pipeline and admission queue from few client identities.
	//
	// The contract with the replicas is at most 64 consecutive
	// timestamps in flight per client identity — one session of 64
	// request slots (sessions.go); NewClient rejects a wider Window and
	// CanInvoke keeps the span. A replica drops a timestamp 64 or more
	// below the client's highest executed one as executed long ago,
	// answers an executed one inside the window from its reply cache,
	// and silently refuses one 64 or more above a request the client
	// re-sent that has yet to execute, until that one executes or its
	// watch expires.
	Window int
	// TSBase is the starting client timestamp. A client identity that
	// may be reused across process restarts (cmd/xft-client) must set
	// this to a monotonically fresh value (e.g. wall-clock nanoseconds)
	// so replicas do not dedupe new requests against the previous
	// incarnation's timestamps. The jump is safe: the session window
	// slides up to the first request, and what the old incarnation
	// left below counts as executed.
	TSBase uint64
	// OnCommit is invoked when a request commits, with the reply and
	// the request latency. Closed-loop drivers issue the next request
	// from this callback via Invoke.
	OnCommit func(op, reply []byte, latency time.Duration)
}

// pendingReq tracks one in-flight request.
type pendingReq struct {
	req     Request
	sentAt  time.Duration
	timer   smr.TimerID
	replies map[smr.NodeID]replyVote
}

type replyVote struct {
	sn        smr.SeqNum
	view      smr.View
	repDigest crypto.Digest
	full      bool // the vote carried the reply itself, in rep
	rep       []byte
}

// Client is an XPaxos client: it signs requests, sends them to the
// primary of its current view guess, collects matching replies from
// the t+1 active replicas, and falls back to the retransmission
// protocol of Algorithm 4 on timeout. Up to ClientConfig.Window
// requests may be outstanding at once; requests are timestamped (and
// executed) in issue order, but commit notifications follow the
// cluster's batching and may arrive together.
type Client struct {
	env   smr.Env
	cfg   ClientConfig
	id    smr.NodeID
	n, t  int
	suite crypto.Suite

	ts      uint64
	view    smr.View
	pending map[uint64]*pendingReq // by request timestamp
	timers  map[smr.TimerID]uint64 // retransmission timer -> timestamp

	// downPeers mirrors the runtime's connection-health signal
	// (PeerDown/PeerUp are edge-triggered; view rotation wants level
	// state).
	downPeers map[smr.NodeID]bool
	// announced is one past the highest view a ⟨view-installed⟩ notice
	// was honoured for; 0 before any.
	announced smr.View
	// followerCommit is the last t = 1 follower commit that verified; the
	// replies of a batch repeat it byte for byte and need no second check.
	followerCommit *Order

	// Committed counts successful requests (exported for tests).
	Committed uint64
	// Retransmits counts timer_c expirations.
	Retransmits uint64
	// HealthRotations counts view-guess rotations triggered by the
	// health signal (exported for tests and stats).
	HealthRotations uint64
}

// NewClient builds a client. It returns an error if the configuration
// asks for more outstanding requests than the replicas can dedupe: the
// per-client execution window is execWindowBits timestamps, and a
// request older than the window is treated as already executed, so a
// wider client window could have stale requests silently swallowed.
func NewClient(id smr.NodeID, cfg ClientConfig) (*Client, error) {
	if cfg.Window > execWindowBits {
		return nil, fmt.Errorf("xpaxos: ClientConfig.Window %d exceeds the replicas' per-client execution-dedupe window (%d)",
			cfg.Window, execWindowBits)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 4 * 1250 * time.Millisecond
	}
	if cfg.N == 0 {
		cfg.N = 2*cfg.T + 1
	}
	if cfg.T == 0 {
		cfg.T = (cfg.N - 1) / 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	return &Client{
		cfg: cfg, id: id, n: cfg.N, t: cfg.T, suite: cfg.Suite, ts: cfg.TSBase,
		pending:   make(map[uint64]*pendingReq),
		timers:    make(map[smr.TimerID]uint64),
		downPeers: make(map[smr.NodeID]bool),
	}, nil
}

// Init implements smr.Node.
func (c *Client) Init(env smr.Env) { c.env = env }

// View returns the client's current view guess.
func (c *Client) View() smr.View { return c.view }

// Outstanding returns the number of in-flight requests. Whether one
// more may be issued is CanInvoke's question, not this count's.
func (c *Client) Outstanding() int { return len(c.pending) }

// Window returns the configured window size.
func (c *Client) Window() int { return c.cfg.Window }

// CanInvoke reports whether Invoke may be called now: fewer than Window
// requests are outstanding, and the next timestamp stays within the
// replicas' execution-dedupe window of the oldest outstanding one.
// While requests commit in order the second condition follows from the
// first. It matters when one is stuck — after a primary crash — while
// newer ones commit and free slots: were the timestamps allowed to run
// execWindowBits past the stuck request, every replica would take it
// for executed long ago, hold no reply for it, and never answer.
func (c *Client) CanInvoke() bool {
	if len(c.pending) >= c.cfg.Window {
		return false
	}
	for ts := range c.pending {
		if c.ts+1-ts >= execWindowBits {
			return false
		}
	}
	return true
}

// Invoke submits an operation. It must be called from within the
// node's event context (e.g. the OnCommit callback, a Start handler,
// or an smr.Invoke event), and only while CanInvoke holds; with the
// default Window of 1 the client is closed-loop, as in the paper's
// benchmarks.
func (c *Client) Invoke(op []byte) {
	if !c.CanInvoke() {
		panic(fmt.Sprintf("xpaxos: client invoked with %d requests outstanding (window %d, timestamps may span %d)",
			len(c.pending), c.cfg.Window, execWindowBits))
	}
	c.ts++
	req := Request{Op: op, TS: c.ts, Client: c.id}
	req.Sig = c.suite.Sign(crypto.NodeID(c.id), req.SigPayload())
	p := &pendingReq{
		req:     req,
		sentAt:  c.env.Now(),
		replies: make(map[smr.NodeID]replyVote),
	}
	c.pending[req.TS] = p
	c.env.Send(Primary(c.n, c.t, c.view), &MsgReplicate{Req: req})
	p.timer = c.env.SetTimer(c.cfg.RequestTimeout, "req")
	c.timers[p.timer] = req.TS
}

// Step implements smr.Node.
func (c *Client) Step(ev smr.Event) {
	switch e := ev.(type) {
	case smr.Start:
	case smr.Invoke:
		c.Invoke(e.Op)
	case smr.TimerFired:
		if ts, ok := c.timers[e.ID]; ok {
			delete(c.timers, e.ID)
			c.onTimeout(ts)
		}
	case smr.Recv:
		c.onRecv(e.From, e.Msg)
	case smr.PeerDown:
		c.onPeerDown(e.Peer)
	case smr.PeerUp:
		delete(c.downPeers, e.Peer)
		c.rotateToViableView() // with few enough down, a better view may exist again
	}
}

// onPeerDown consumes the runtime's connection-health signal: when a
// member of the current view guess's synchronous group goes dark — the
// primary, or a follower without which nothing commits either — rotate
// the guess to the view the replicas will rotate to (NextViableView,
// the rule they follow) and re-send pending requests there, instead of
// burning a full request timeout discovering the same fault. The
// signal is advisory and local (a partial partition can sever only our
// channel), so rotation never skips the protocol's safety interlocks —
// the rotated-to primary still needs the usual t+1 reply quorum, and if
// the guess is wrong the timeout path still fires and broadcasts. With
// more than t replicas down there is nowhere better to point: keep the
// guess and let timers drive retransmission.
func (c *Client) onPeerDown(peer smr.NodeID) {
	if peer.IsClient() || peer == c.id {
		return
	}
	c.downPeers[peer] = true
	c.rotateToViableView()
}

// rotateToViableView moves the guess — and everything pending — to the
// first view at or after it whose group is believed up, if there is one
// and it is not the guess already.
func (c *Client) rotateToViableView() {
	if v, ok := NextViableView(c.n, c.t, c.view, c.downPeers); ok && v != c.view {
		c.view = v
		c.HealthRotations++
		c.resendPending()
	}
}

func (c *Client) onRecv(from smr.NodeID, msg smr.Message) {
	switch m := msg.(type) {
	case *MsgReply:
		c.onReply(from, m)
	case *MsgReplyDigest:
		c.onReplyDigest(from, m)
	case *MsgSignedReply:
		c.onSignedReply(from, m)
	case *MsgSuspect:
		c.onSuspect(from, m)
	case *MsgViewInstalled:
		c.onViewInstalled(from, m)
	}
}

// onReply handles a full reply (the primary's; and for t = 1 the only
// reply, carrying the follower's m1).
func (c *Client) onReply(from smr.NodeID, m *MsgReply) {
	p := c.pending[m.TS]
	if p == nil || m.From != from {
		return
	}
	if !c.suite.VerifyMAC(crypto.NodeID(from), crypto.NodeID(c.id), m.MACPayload(), m.MAC) {
		return
	}
	if m.View > c.view {
		c.view = m.View
	}
	if c.t == 1 {
		// Verify the follower's signature over the reply root and that
		// our reply is bound inside it (Section 4.2.2).
		if m.FollowerCommit == nil {
			return
		}
		fc := m.FollowerCommit
		if fc.View != m.View || fc.SN != m.SN || followerIndex(c.n, c.t, fc.View, fc.From) < 0 {
			return
		}
		if c.followerCommit == nil || !c.followerCommit.sameSigned(fc) {
			if !verifyOrder(c.suite, fc) {
				return
			}
			memo := *fc
			memo.Sig = slices.Clone(fc.Sig)
			c.followerCommit = &memo
		}
		// Our reply must be bound under the follower's signed root.
		leaf := ReplyLeaf(m.TS, crypto.Hash(m.Rep))
		if !crypto.VerifyMerkleProof(leaf, m.Proof, fc.RepRoot) {
			return
		}
		c.commit(p, m.Rep)
		return
	}
	p.replies[from] = replyVote{sn: m.SN, view: m.View, repDigest: crypto.Hash(m.Rep), full: true, rep: m.Rep}
	c.checkQuorum(p)
}

// onReplyDigest handles a follower's digest reply (t ≥ 2).
func (c *Client) onReplyDigest(from smr.NodeID, m *MsgReplyDigest) {
	p := c.pending[m.TS]
	if p == nil || m.From != from || c.t < 2 {
		return
	}
	if !c.suite.VerifyMAC(crypto.NodeID(from), crypto.NodeID(c.id), m.MACPayload(), m.MAC) {
		return
	}
	if m.View > c.view {
		c.view = m.View
	}
	p.replies[from] = replyVote{sn: m.SN, view: m.View, repDigest: m.RepDigest}
	c.checkQuorum(p)
}

// checkQuorum commits p when t+1 active replicas of one view sent
// matching replies and the full reply is among them.
func (c *Client) checkQuorum(p *pendingReq) {
	for _, v := range p.replies {
		if !v.full {
			continue
		}
		group, votes := SyncGroup(c.n, c.t, v.view), 0
		for from, w := range p.replies {
			if w.view == v.view && w.sn == v.sn && w.repDigest == v.repDigest && slices.Contains(group, from) {
				votes++
			}
		}
		if votes >= c.t+1 {
			c.commit(p, v.rep)
			return
		}
	}
}

// onSignedReply handles the retransmission path's bundle of t+1 signed
// replies (Algorithm 4). Signatures may stem from different views (a
// replica signs with the view it executed in, which a view change may
// have moved past); t+1 distinct replicas vouching for the same reply
// digest guarantee at least one correct replica executed it.
func (c *Client) onSignedReply(from smr.NodeID, m *MsgSignedReply) {
	if len(m.Replies) < c.t+1 {
		return
	}
	p := c.pending[m.Replies[0].TS]
	if p == nil {
		return
	}
	d := crypto.Hash(m.Rep)
	seen := make(map[smr.NodeID]bool)
	for i := range m.Replies {
		rs := &m.Replies[i]
		if rs.TS != p.req.TS || rs.Client != c.id || rs.RepDigest != d {
			return
		}
		if seen[rs.From] || int(rs.From) < 0 || int(rs.From) >= c.n {
			return
		}
		if !c.suite.Verify(crypto.NodeID(rs.From), rs.SigPayload(), rs.Sig) {
			return
		}
		seen[rs.From] = true
		if rs.View > c.view {
			c.view = rs.View
		}
	}
	c.commit(p, m.Rep)
}

// onSuspect: a replica told us the view is changing (Algorithm 4 lines
// 11–15) — move to the next view, relay the suspicion to its active
// replicas, and re-send every pending request to the new primary.
func (c *Client) onSuspect(from smr.NodeID, m *MsgSuspect) {
	if !InGroup(c.n, c.t, m.View, m.From) {
		return
	}
	if !c.suite.Verify(crypto.NodeID(m.From), m.SigPayload(), m.Sig) {
		return
	}
	if m.View < c.view {
		return
	}
	c.view = m.View + 1
	for _, id := range SyncGroup(c.n, c.t, c.view) {
		c.env.Send(id, m)
	}
	c.resendPending()
}

// onViewInstalled handles the new primary's notice that its view is
// installed: adopt the view and re-send everything pending there now.
// The notice is honoured once per view and only from that view's
// primary; a view at our guess counts, because we may have rotated here
// on our own suspicion before the primary was ready and had those
// requests dropped.
func (c *Client) onViewInstalled(from smr.NodeID, m *MsgViewInstalled) {
	if m.From != from || from != Primary(c.n, c.t, m.View) {
		return
	}
	if m.View < c.view || m.View < c.announced {
		return
	}
	if !c.suite.VerifyMAC(crypto.NodeID(from), crypto.NodeID(c.id), m.MACPayload(), m.MAC) {
		return
	}
	c.view = m.View
	c.announced = m.View + 1
	c.resendPending()
}

// resendPending re-sends every pending request to the current view
// guess's primary and re-arms the timers. Re-sends go in timestamp
// order: the primary's admission queue is per-client FIFO, and a
// gap-free ascending stream is what keeps the at-most-once execution
// counter from skipping any of them.
func (c *Client) resendPending() {
	resend := make([]*pendingReq, 0, len(c.pending))
	for _, p := range c.pending {
		resend = append(resend, p)
	}
	sort.Slice(resend, func(i, j int) bool { return resend[i].req.TS < resend[j].req.TS })
	primary := Primary(c.n, c.t, c.view)
	for _, p := range resend {
		c.env.Send(primary, &MsgReplicate{Req: p.req})
		c.env.CancelTimer(p.timer)
		delete(c.timers, p.timer)
		p.timer = c.env.SetTimer(c.cfg.RequestTimeout, "req")
		c.timers[p.timer] = p.req.TS
	}
}

// onTimeout broadcasts the timed-out request to all active replicas
// (Algorithm 4 lines 1–2).
func (c *Client) onTimeout(ts uint64) {
	p := c.pending[ts]
	if p == nil {
		return
	}
	c.Retransmits++
	msg := &MsgResend{Req: p.req}
	for _, id := range SyncGroup(c.n, c.t, c.view) {
		c.env.Send(id, msg)
	}
	p.timer = c.env.SetTimer(c.cfg.RequestTimeout, "req")
	c.timers[p.timer] = ts
}

// commit finishes a pending request.
func (c *Client) commit(p *pendingReq, rep []byte) {
	c.env.CancelTimer(p.timer)
	delete(c.timers, p.timer)
	delete(c.pending, p.req.TS)
	c.Committed++
	if c.cfg.OnCommit != nil {
		c.cfg.OnCommit(p.req.Op, rep, c.env.Now()-p.sentAt)
	}
}
