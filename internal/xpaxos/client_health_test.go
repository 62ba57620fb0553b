package xpaxos

import (
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// clientEnv is a scripted smr.Env for driving a Client directly.
type clientEnv struct {
	id    smr.NodeID
	now   time.Duration
	sends []struct {
		to smr.NodeID
		m  smr.Message
	}
	nextTimer smr.TimerID
}

func (e *clientEnv) ID() smr.NodeID     { return e.id }
func (e *clientEnv) Now() time.Duration { return e.now }
func (e *clientEnv) Send(to smr.NodeID, m smr.Message) {
	e.sends = append(e.sends, struct {
		to smr.NodeID
		m  smr.Message
	}{to, m})
}
func (e *clientEnv) SetTimer(d time.Duration, kind string) smr.TimerID {
	e.nextTimer++
	return e.nextTimer
}
func (e *clientEnv) CancelTimer(id smr.TimerID)                   {}
func (e *clientEnv) Defer(kind string, work func(), apply func()) { work(); apply() }

// replicatesTo returns the primaries that received a MsgReplicate, in
// send order.
func replicatesTo(env *clientEnv) []smr.NodeID {
	var out []smr.NodeID
	for _, s := range env.sends {
		if _, ok := s.m.(*MsgReplicate); ok {
			out = append(out, s.to)
		}
	}
	return out
}

func newHealthTestClient(t *testing.T, env *clientEnv, tf int) *Client {
	t.Helper()
	c, err := NewClient(env.id, ClientConfig{
		N: 2*tf + 1, T: tf,
		Suite:          crypto.NewSimSuite(1),
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	c.Init(env)
	c.Step(smr.Start{})
	return c
}

// TestClientRotatesViewOnPrimaryDown is the PeerDown regression test:
// when the transport reports the current primary dark, the client must
// rotate its view guess and re-send pending requests to the new
// primary immediately — well before the request timeout would fire the
// Algorithm 4 broadcast.
func TestClientRotatesViewOnPrimaryDown(t *testing.T) {
	env := &clientEnv{id: smr.ClientIDBase}
	c := newHealthTestClient(t, env, 1)
	c.Invoke(kv.PutOp("k", []byte("v")))

	p0 := Primary(3, 1, 0)
	if got := replicatesTo(env); len(got) != 1 || got[0] != p0 {
		t.Fatalf("initial send went to %v, want [%d]", got, p0)
	}

	// A passive replica going down must not rotate: view 0 can still
	// commit, and churning the guess would desynchronize the client
	// from a healthy primary. Replica 2 is passive in view 0.
	c.Step(smr.PeerDown{Peer: 2, LastSeen: time.Second})
	if c.View() != 0 || c.HealthRotations != 0 {
		t.Fatalf("rotated on passive PeerDown: view=%d rotations=%d", c.View(), c.HealthRotations)
	}
	c.Step(smr.PeerUp{Peer: 2, RTT: time.Millisecond})

	// The primary goes dark: rotate ahead of the timeout and re-send.
	c.Step(smr.PeerDown{Peer: p0, LastSeen: time.Second})
	if c.HealthRotations != 1 {
		t.Fatalf("HealthRotations = %d, want 1", c.HealthRotations)
	}
	if c.View() == 0 {
		t.Fatal("view guess did not move off the dead primary")
	}
	newPrimary := Primary(3, 1, c.View())
	if newPrimary == p0 {
		t.Fatalf("rotated view %d still has the dead primary %d", c.View(), p0)
	}
	sends := replicatesTo(env)
	if len(sends) != 2 || sends[1] != newPrimary {
		t.Fatalf("pending request not re-sent to the new primary: sends=%v, want [... %d]", sends, newPrimary)
	}
	if c.Retransmits != 0 {
		t.Fatal("rotation burned a retransmission; it must act before the timeout path")
	}
}

// TestClientRotationFollowsViableViews: the client's guess follows the
// replicas' rule (NextViableView) — it leaves a view when any member
// of its group is dark, follower as much as primary, lands on the first
// view whose whole group is believed up, holds with more than t dark
// (nowhere better to point, and a wrong guess must not spin the view
// counter), and re-evaluates when a PeerUp makes a view viable again.
// Run at t=2, where a view can have a live primary and a dead follower:
//
//	0:(0,1,2) 1:(0,1,3) 2:(0,1,4) 3:(0,2,3) 4:(0,2,4)
//	5:(0,3,4) 6:(1,2,3) 7:(1,2,4) 8:(1,3,4) 9:(2,3,4)
func TestClientRotationFollowsViableViews(t *testing.T) {
	env := &clientEnv{id: smr.ClientIDBase}
	c := newHealthTestClient(t, env, 2)
	c.Invoke(kv.PutOp("k", []byte("v")))
	step := func(ev smr.Event, wantView smr.View, wantRotations uint64) {
		t.Helper()
		c.Step(ev)
		if c.View() != wantView || c.HealthRotations != wantRotations {
			t.Fatalf("after %#v: view %d after %d rotations, want view %d after %d",
				ev, c.View(), c.HealthRotations, wantView, wantRotations)
		}
	}
	down := func(id smr.NodeID) smr.Event { return smr.PeerDown{Peer: id, LastSeen: time.Second} }
	up := func(id smr.NodeID) smr.Event { return smr.PeerUp{Peer: id, RTT: time.Millisecond} }

	step(down(4), 0, 0) // passive in view 0
	step(down(1), 3, 1) // a follower of view 0: the primary lives, the view does not
	if sends := replicatesTo(env); len(sends) != 2 || sends[1] != 0 {
		t.Fatalf("pending request not re-sent to view 3's primary 0: %v", sends)
	}
	step(down(0), 3, 1) // three of five dark: hold
	step(up(4), 9, 2)   // {0,1} dark: the only group without them
	step(up(0), 9, 2)
	step(up(1), 9, 2)
	step(down(2), 11, 3) // wraps: 10 = (0,1,2) holds the dark 2, 11 = (0,1,3) is clean
	if c.Retransmits != 0 {
		t.Fatal("rotation burned a retransmission; it must act before the timeout path")
	}
}

// TestClientHealthRotationEndToEnd: in the simulator, a client fed by
// health monitors recovers from a primary crash faster than its
// request timeout — the rotation (not the timeout broadcast) is what
// carries the pending request to the live follower.
func TestClientHealthRotationEndToEnd(t *testing.T) {
	const reqTimeout = 5 * time.Second
	c := newCluster(t, clusterOpts{
		t:              1,
		clients:        1,
		reqTimeout:     reqTimeout,
		probeInterval:  50 * time.Millisecond,
		probeTimeout:   200 * time.Millisecond,
		monitorClients: true,
	})
	ops := make([][]byte, 8)
	for i := range ops {
		ops[i] = kv.PutOp("k", []byte{byte(i)})
	}
	done := c.invokeSeq(0, ops, nil)
	c.net.At(300*time.Millisecond, func() { c.net.Crash(0) })
	c.run(3 * time.Second) // well under reqTimeout
	cl := c.clients[0]
	if cl.HealthRotations == 0 {
		t.Fatal("client never rotated on the health signal")
	}
	if *done < 2 {
		t.Fatalf("committed %d ops in 3s; rotation should beat the %v request timeout", *done, reqTimeout)
	}
}
