package xpaxos

import (
	"reflect"
	"testing"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

func TestExecMarkWindow(t *testing.T) {
	var m execMark
	if m.executed(1) || m.executed(0) {
		t.Fatal("fresh mark claims executions")
	}
	m = m.record(5)
	if !m.executed(5) || m.executed(4) || m.executed(6) {
		t.Fatalf("after record(5): %+v", m)
	}
	m = m.record(7)
	if !m.executed(5) || !m.executed(7) || m.executed(6) {
		t.Fatalf("after record(7): %+v", m)
	}
	m = m.record(6) // late execution fills the hole
	if !m.executed(6) {
		t.Fatal("late record(6) not remembered")
	}
	// Far jump: everything in the fresh window is unexecuted, anything
	// at or below last-64 counts as ancient.
	m = m.record(1000)
	if m.executed(999) {
		t.Fatal("999 marked executed after jump")
	}
	if !m.executed(1000-execWindowBits) || !m.executed(1) {
		t.Fatal("ancient timestamps must count as executed (duplicate suppression)")
	}
	if m.executed(1000 - execWindowBits + 1) {
		t.Fatal("in-window unexecuted timestamp misreported")
	}
}

func TestReplyCacheWindow(t *testing.T) {
	r := NewReplica(0, regressionConfig(), kv.NewStore())
	c := smr.NodeID(7)
	s := r.session(c)
	put := func(ts uint64) { r.recordExecution(s, cachedReply{TS: ts, Rep: []byte{byte(ts)}}) }
	for ts := uint64(1); ts <= 3; ts++ {
		put(ts)
	}
	for ts := uint64(1); ts <= 3; ts++ {
		got, ok := r.reply(c, ts)
		if !ok || got.Rep[0] != byte(ts) {
			t.Fatalf("reply(%d) = %+v, %v", ts, got, ok)
		}
	}
	// A late execution below the mark is retrievable, and the replies
	// come out in timestamp order.
	put(10)
	put(5)
	if _, ok := r.reply(c, 5); !ok {
		t.Fatal("out-of-order insert lost")
	}
	for i, cr := range s.replies() {
		if want := []uint64{1, 2, 3, 5, 10}[i]; cr.TS != want {
			t.Fatalf("replies()[%d] is timestamp %d, want %d", i, cr.TS, want)
		}
	}
	// Entries below the window of the max prune away.
	put(10 + execWindowBits)
	if _, ok := r.reply(c, 1); ok {
		t.Fatal("ancient entry survived pruning")
	}
	if _, ok := r.reply(c, 10+execWindowBits); !ok {
		t.Fatal("latest entry missing")
	}
	if n := len(s.replies()); n != 1 {
		t.Fatalf("%d replies left inside the window after the jump, want 1", n)
	}
}

// TestDuplicateOfEarlierWindowedRequestGetsReply: with several of one
// client's requests executed, a retransmission of any of them — not
// just the newest — must be answered from the reply cache. This is
// the lost-reply recovery path for open-loop clients.
func TestDuplicateOfEarlierWindowedRequestGetsReply(t *testing.T) {
	suite := crypto.NewSimSuite(1)
	// t = 2: the re-reply is a plain MACed MsgReply; the t = 1 path
	// additionally needs a commit-log entry for the follower-signature
	// proof, which a stubbed replica that bypasses the commit protocol
	// does not have (it is covered by the open-loop cluster tests).
	cfg := Config{N: 5, T: 2, Suite: suite, BatchSize: 4}
	r := NewReplica(0, cfg, kv.NewStore())
	env := newStubEnv(0)
	r.Init(env)
	r.Step(smr.Start{})

	client := smr.ClientIDBase
	reqs := []Request{
		signedReq(suite, client, 1, kv.PutOp("a", []byte("1"))),
		signedReq(suite, client, 2, kv.PutOp("b", []byte("2"))),
		signedReq(suite, client, 3, kv.PutOp("c", []byte("3"))),
	}
	// Execute all three directly (the stub cannot complete the commit
	// protocol; applyBatch is the execution path both roles share).
	r.applyBatch(&Batch{Reqs: reqs}, 1, 0)

	// A duplicate of the *oldest* executed request must be re-answered.
	env.sent = nil
	r.Step(smr.Recv{From: client, Msg: &MsgReplicate{Req: reqs[0]}})
	replied := false
	for _, s := range env.sent {
		if m, ok := s.msg.(*MsgReply); ok && s.to == client && m.TS == 1 {
			replied = true
		}
	}
	if !replied {
		t.Error("duplicate of TS=1 not answered while TS=3 is the latest execution")
	}
}

// maxReplicaStateMaps is the number of map-kind fields Replica holds,
// directly or in structs it embeds by value: the session table's two
// (clients, watch timers), the view log, the commit-entry verdict
// cache, and three sets of replica ids or faults. Each map is a
// lifetime somebody has to bound and prune; a new one is a decision to
// review, like raising a scripts/loc.sh ceiling.
const maxReplicaStateMaps = 7

func TestReplicaStateMaps(t *testing.T) {
	var maps []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Map:
				maps = append(maps, prefix+f.Name)
			case reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			}
		}
	}
	walk("", reflect.TypeFor[Replica]())
	if len(maps) > maxReplicaStateMaps {
		t.Fatalf("Replica holds %d maps, ceiling is %d: %v", len(maps), maxReplicaStateMaps, maps)
	}
}
