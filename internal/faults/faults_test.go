package faults

import (
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/netsim"
	"github.com/xft-consensus/xft/internal/smr"
)

type msg struct {
	name string
}

func (m msg) Type() string  { return m.name }
func (m msg) WireSize() int { return 10 }

type echo struct {
	env   smr.Env
	recvd []string
}

func (e *echo) Init(env smr.Env) { e.env = env }
func (e *echo) Step(ev smr.Event) {
	if r, ok := ev.(smr.Recv); ok {
		e.recvd = append(e.recvd, r.Msg.Type())
	}
}

type sender struct {
	env  smr.Env
	send []msg
}

func (s *sender) Init(env smr.Env) { s.env = env }
func (s *sender) Step(ev smr.Event) {
	if _, ok := ev.(smr.Start); ok {
		for _, m := range s.send {
			s.env.Send(1, m)
		}
	}
}

func runPair(t *testing.T, filter SendFilter, sends []msg) []string {
	t.Helper()
	net := netsim.New(netsim.Config{Latency: netsim.Uniform{Delay: time.Millisecond}})
	rx := &echo{}
	tx := smr.Node(&sender{send: sends})
	if filter != nil {
		tx = Wrap(tx, filter)
	}
	net.AddNode(0, tx)
	net.AddNode(1, rx)
	net.RunFor(time.Second)
	return rx.recvd
}

func TestPassThrough(t *testing.T) {
	got := runPair(t, nil, []msg{{"a"}, {"b"}})
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestMuteDropsEverything(t *testing.T) {
	got := runPair(t, Mute(), []msg{{"a"}, {"b"}})
	if len(got) != 0 {
		t.Fatalf("muted node delivered %v", got)
	}
}

func TestDropTypes(t *testing.T) {
	got := runPair(t, DropTypes("a"), []msg{{"a"}, {"b"}, {"a"}})
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("got %v, want [b]", got)
	}
}

func TestDropTo(t *testing.T) {
	got := runPair(t, DropTo(1), []msg{{"a"}})
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	got = runPair(t, DropTo(2), []msg{{"a"}})
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestDropNth(t *testing.T) {
	got := runPair(t, DropNth(3), []msg{{"a"}, {"b"}, {"c"}, {"d"}, {"e"}, {"f"}, {"g"}})
	want := []string{"a", "b", "d", "e", "g"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestTimelineOrder asserts the schedule order contract: actions sort
// by time with insertion order as the tie-break.
func TestTimelineOrder(t *testing.T) {
	var tl Timeline
	tl.Add(20*time.Millisecond, "a2", nil)
	tl.Add(10*time.Millisecond, "a1", nil)
	tl.Add(10*time.Millisecond, "a1b", nil)
	tl.Add(10*time.Millisecond, "b1", nil)
	tl.Add(5*time.Millisecond, "b0", nil)
	var names []string
	for _, act := range tl.Sorted() {
		names = append(names, act.Name)
	}
	want := []string{"b0", "a1", "a1b", "b1", "a2"}
	if len(names) != len(want) {
		t.Fatalf("got %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v, want %v", names, want)
		}
	}
}

// TestTimelineInstallFires runs a timeline against the simulator and
// checks that every action fires exactly once, in order, and that the
// observer sees the executed schedule.
func TestTimelineInstallFires(t *testing.T) {
	net := netsim.New(netsim.Config{Latency: netsim.Uniform{Delay: time.Millisecond}})
	var tl Timeline
	var fired, observed []string
	tl.Add(2*time.Millisecond, "x", func() { fired = append(fired, "x") })
	tl.Add(1*time.Millisecond, "y", func() { fired = append(fired, "y") })
	tl.Install(net.At, func(a Action) { observed = append(observed, a.Name) })
	net.RunFor(10 * time.Millisecond)
	if len(fired) != 2 || fired[0] != "y" || fired[1] != "x" {
		t.Fatalf("fired %v, want [y x]", fired)
	}
	if len(observed) != 2 || observed[0] != "y" || observed[1] != "x" {
		t.Fatalf("observed %v, want [y x]", observed)
	}
}
