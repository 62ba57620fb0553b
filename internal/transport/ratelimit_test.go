package transport

import (
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
)

type rlMsg struct{ resend bool }

func (rlMsg) Type() string       { return "rl-test" }
func (rlMsg) WireSize() int      { return 8 }
func (m rlMsg) Retransmit() bool { return m.resend }

func newTestLimiter(rate float64, burst int) *rateLimiter {
	n := &Node{}
	WithIntakeLimit(rate, burst)(n)
	return n.limiter
}

func TestRateLimitAdmitsWithinBudget(t *testing.T) {
	rl := newTestLimiter(100, 10)
	client := smr.ClientIDBase
	for i := 0; i < 10; i++ {
		if !rl.admit(0, client, rlMsg{}) {
			t.Fatalf("message %d shed inside the burst budget", i)
		}
	}
	if rl.admit(0, client, rlMsg{}) {
		t.Fatal("fresh message admitted past the burst budget")
	}
	st := rl.stats()
	if st.Admitted != 10 || st.ShedFresh != 1 || st.ShedRetransmit != 0 {
		t.Fatalf("stats = %+v, want Admitted=10 ShedFresh=1", st)
	}
}

func TestRateLimitRefillsOverTime(t *testing.T) {
	rl := newTestLimiter(100, 10) // 100/s: one token per 10ms
	client := smr.ClientIDBase
	for i := 0; i < 10; i++ {
		rl.admit(0, client, rlMsg{})
	}
	if rl.admit(0, client, rlMsg{}) {
		t.Fatal("admitted with an empty bucket")
	}
	if !rl.admit(50*time.Millisecond, client, rlMsg{}) {
		t.Fatal("shed after refill interval")
	}
}

func TestRateLimitRetransmitOverdraft(t *testing.T) {
	rl := newTestLimiter(100, 5)
	client := smr.ClientIDBase + 7
	for i := 0; i < 5; i++ {
		rl.admit(0, client, rlMsg{})
	}
	// Budget exhausted: fresh load is shed, retransmissions still pass —
	// the overdraft band is reserved for them.
	if rl.admit(0, client, rlMsg{}) {
		t.Fatal("fresh message admitted with empty bucket")
	}
	for i := 0; i < 5; i++ {
		if !rl.admit(0, client, rlMsg{resend: true}) {
			t.Fatalf("retransmission %d shed while overdraft remains", i)
		}
	}
	// Overdraft exhausted too: now even retransmissions shed.
	if rl.admit(0, client, rlMsg{resend: true}) {
		t.Fatal("retransmission admitted past the overdraft floor")
	}
	st := rl.stats()
	if st.ShedFresh != 1 || st.ShedRetransmit != 1 {
		t.Fatalf("stats = %+v, want ShedFresh=1 ShedRetransmit=1", st)
	}
}

func TestRateLimitIgnoresReplicaTraffic(t *testing.T) {
	rl := newTestLimiter(1, 1)
	for i := 0; i < 100; i++ {
		if !rl.admit(0, smr.NodeID(2), rlMsg{}) {
			t.Fatal("replica-to-replica traffic must never be limited")
		}
	}
	if got := rl.stats().Sources; got != 0 {
		t.Fatalf("replica sources tracked: %d, want 0", got)
	}
}

func TestRateLimitPerSourceIsolation(t *testing.T) {
	rl := newTestLimiter(100, 3)
	noisy, quiet := smr.ClientIDBase, smr.ClientIDBase+1
	for i := 0; i < 10; i++ {
		rl.admit(0, noisy, rlMsg{})
	}
	if !rl.admit(0, quiet, rlMsg{}) {
		t.Fatal("a noisy client exhausted another client's budget")
	}
	if got := rl.stats().Sources; got != 2 {
		t.Fatalf("Sources = %d, want 2", got)
	}
}
