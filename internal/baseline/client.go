package baseline

import (
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// AcceptFunc is a protocol's reply-acceptance rule. Client calls it
// for every message that arrives while a request is outstanding; it
// returns the reply and true once the protocol's commit condition
// holds for the request stamped Client.TS.
type AcceptFunc func(from smr.NodeID, m smr.Message) (rep []byte, done bool)

// Client is the closed-loop client every baseline shares: it stamps,
// optionally signs and sends one request at a time to the leader it
// believes in, rebroadcasts it to all replicas on timeout so any of
// them can forward it or start a leader change, and completes when the
// protocol's AcceptFunc says so.
type Client struct {
	Peer
	Cfg Config
	// Begin, if set, runs at the start of every request so the
	// protocol can reset its per-request reply bookkeeping.
	Begin func()
	// OnCommit receives (op, reply, latency).
	OnCommit func(op, rep []byte, latency time.Duration)
	// Committed counts completed requests.
	Committed uint64

	domain  Domain
	accept  AcceptFunc
	ts      uint64
	pending *outstanding
}

type outstanding struct {
	req    Request
	sentAt time.Duration
	timer  smr.TimerID
}

// NewClient builds a client. cfg must already carry its defaults.
func NewClient(id smr.NodeID, cfg Config, d Domain, accept AcceptFunc) *Client {
	return &Client{
		Peer: Peer{ID: id, N: cfg.N, T: cfg.T, Suite: cfg.Suite},
		Cfg:  cfg, domain: d, accept: accept,
	}
}

// TS returns the timestamp of the current (or last) request.
func (c *Client) TS() uint64 { return c.ts }

// SawView advances the client's notion of the current view, and with
// it the leader the next request goes to.
func (c *Client) SawView(v smr.View) { c.View = max(c.View, v) }

// Invoke submits an operation (one outstanding request at a time).
func (c *Client) Invoke(op []byte) {
	if c.pending != nil {
		panic("baseline: client invoked with request outstanding")
	}
	c.ts++
	req := Request{Op: op, TS: c.ts, Client: c.ID}
	if c.Cfg.SignedRequests {
		w := wire.Get()
		c.domain.AppendSigPayload(w, &req)
		req.Sig = c.Suite.Sign(crypto.NodeID(c.ID), w.Done())
		wire.Put(w)
	}
	c.pending = &outstanding{req: req, sentAt: c.Env.Now()}
	if c.Begin != nil {
		c.Begin()
	}
	c.Env.Send(c.Leader(), &MsgRequest{Req: req})
	c.pending.timer = c.Env.SetTimer(c.Cfg.RequestTimeout, "req")
}

// Step implements smr.Node.
func (c *Client) Step(ev smr.Event) {
	p := c.pending
	switch e := ev.(type) {
	case smr.Invoke:
		c.Invoke(e.Op)
	case smr.TimerFired:
		if p != nil && e.ID == p.timer {
			for i := 0; i < c.N; i++ {
				c.Env.Send(smr.NodeID(i), &MsgRequest{Req: p.req})
			}
			p.timer = c.Env.SetTimer(c.Cfg.RequestTimeout, "req")
		}
	case smr.Recv:
		if p == nil {
			return
		}
		rep, done := c.accept(e.From, e.Msg)
		if !done {
			return
		}
		c.Env.CancelTimer(p.timer)
		c.pending = nil
		c.Committed++
		if c.OnCommit != nil {
			c.OnCommit(p.req.Op, rep, c.Env.Now()-p.sentAt)
		}
	}
}
