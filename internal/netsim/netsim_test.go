package netsim

import (
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// testMsg is a minimal message with a configurable wire size.
type testMsg struct {
	name string
	size int
	n    int
}

func (m testMsg) Type() string  { return m.name }
func (m testMsg) WireSize() int { return m.size }

// scriptNode runs callbacks for events; useful for wiring small tests.
type scriptNode struct {
	env     smr.Env
	onStart func(env smr.Env)
	onRecv  func(env smr.Env, r smr.Recv)
	onTimer func(env smr.Env, t smr.TimerFired)
	recvs   []smr.Recv
	timers  []smr.TimerFired
	recvAt  []time.Duration
}

func (s *scriptNode) Init(env smr.Env) { s.env = env }
func (s *scriptNode) Step(ev smr.Event) {
	switch e := ev.(type) {
	case smr.Start:
		if s.onStart != nil {
			s.onStart(s.env)
		}
	case smr.Recv:
		s.recvs = append(s.recvs, e)
		s.recvAt = append(s.recvAt, s.env.Now())
		if s.onRecv != nil {
			s.onRecv(s.env, e)
		}
	case smr.TimerFired:
		s.timers = append(s.timers, e)
		if s.onTimer != nil {
			s.onTimer(s.env, e)
		}
	}
}

func TestMessageDeliveryLatency(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: 40 * time.Millisecond}})
	recv := &scriptNode{}
	net.AddNode(0, &scriptNode{onStart: func(env smr.Env) {
		env.Send(1, testMsg{name: "ping", size: 100})
	}})
	net.AddNode(1, recv)
	net.RunUntil(time.Second)
	if len(recv.recvs) != 1 {
		t.Fatalf("got %d messages, want 1", len(recv.recvs))
	}
	if got := recv.recvAt[0]; got != 40*time.Millisecond {
		t.Fatalf("delivered at %v, want 40ms", got)
	}
	if recv.recvs[0].From != 0 {
		t.Fatalf("from = %d, want 0", recv.recvs[0].From)
	}
}

func TestEgressBandwidthSerializes(t *testing.T) {
	// 1000 bytes/sec; two 500-byte messages take 0.5s each to put on
	// the wire, so the second arrives 0.5s after the first.
	net := New(Config{Latency: Uniform{Delay: 0}, EgressBytesPerSec: 1000})
	recv := &scriptNode{}
	net.AddNode(0, &scriptNode{onStart: func(env smr.Env) {
		env.Send(1, testMsg{name: "a", size: 500})
		env.Send(1, testMsg{name: "b", size: 500})
	}})
	net.AddNode(1, recv)
	net.RunUntil(10 * time.Second)
	if len(recv.recvs) != 2 {
		t.Fatalf("got %d messages, want 2", len(recv.recvs))
	}
	if recv.recvAt[0] != 500*time.Millisecond || recv.recvAt[1] != time.Second {
		t.Fatalf("arrivals %v, want [500ms 1s]", recv.recvAt)
	}
}

func TestInfiniteBandwidthDoesNotSerialize(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: time.Millisecond}})
	recv := &scriptNode{}
	net.AddNode(0, &scriptNode{onStart: func(env smr.Env) {
		for i := 0; i < 5; i++ {
			env.Send(1, testMsg{name: "x", size: 1 << 20})
		}
	}})
	net.AddNode(1, recv)
	net.RunUntil(time.Second)
	for _, at := range recv.recvAt {
		if at != time.Millisecond {
			t.Fatalf("arrival at %v, want 1ms for all", at)
		}
	}
}

func TestCPUCostDelaysProcessing(t *testing.T) {
	// The sender signs during Start; the meter charges 450µs, so its
	// outgoing message leaves at 450µs+dispatch, not at 0.
	suite := crypto.NewSimSuite(1)
	meter := crypto.NewMeter(suite)
	cm := crypto.CostModel{SignCost: 450 * time.Microsecond}
	net := New(Config{Latency: Uniform{Delay: 0}, CostModel: cm})
	recv := &scriptNode{}
	net.AddNode(0, &scriptNode{onStart: func(env smr.Env) {
		meter.Sign(0, []byte("work"))
		env.Send(1, testMsg{name: "signed", size: 10})
	}}, WithMeter(meter))
	net.AddNode(1, recv)
	net.RunUntil(time.Second)
	if len(recv.recvAt) != 1 || recv.recvAt[0] != 450*time.Microsecond {
		t.Fatalf("arrival %v, want [450µs]", recv.recvAt)
	}
	if got := net.Stats(0).CPUBusy; got != 450*time.Microsecond {
		t.Fatalf("CPU busy %v, want 450µs", got)
	}
}

func TestCPUQueueBacklog(t *testing.T) {
	// Receiver pays 1ms of verification per message. Three messages
	// arriving together are processed back to back; replies leave at
	// 1, 2 and 3 ms.
	suite := crypto.NewSimSuite(1)
	meter := crypto.NewMeter(suite)
	cm := crypto.CostModel{VerifyCost: time.Millisecond}
	net := New(Config{Latency: Uniform{Delay: 0}, CostModel: cm})
	sink := &scriptNode{}
	worker := &scriptNode{onRecv: func(env smr.Env, r smr.Recv) {
		meter.Verify(0, []byte("m"), crypto.Signature{})
		env.Send(2, testMsg{name: "done", size: 1})
	}}
	net.AddNode(0, &scriptNode{onStart: func(env smr.Env) {
		for i := 0; i < 3; i++ {
			env.Send(1, testMsg{name: "job", size: 1})
		}
	}})
	net.AddNode(1, worker, WithMeter(meter))
	net.AddNode(2, sink)
	net.RunUntil(time.Second)
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(sink.recvAt) != 3 {
		t.Fatalf("got %d replies, want 3", len(sink.recvAt))
	}
	for i, at := range sink.recvAt {
		if at != want[i] {
			t.Fatalf("reply %d at %v, want %v", i, at, want[i])
		}
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: time.Millisecond}})
	recv := &scriptNode{}
	sender := &scriptNode{}
	net.AddNode(0, sender)
	net.AddNode(1, recv)
	net.Crash(1)
	net.At(0, func() { sender.env.Send(1, testMsg{name: "x", size: 1}) })
	net.RunUntil(10 * time.Millisecond)
	if len(recv.recvs) != 0 {
		t.Fatalf("crashed node received a message")
	}
	net.Recover(1)
	net.At(net.Now(), func() { sender.env.Send(1, testMsg{name: "y", size: 1}) })
	net.RunUntil(20 * time.Millisecond)
	if len(recv.recvs) != 1 || recv.recvs[0].Msg.Type() != "y" {
		t.Fatalf("recovered node did not receive post-recovery message: %v", recv.recvs)
	}
}

func TestCutAndHealLink(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: time.Millisecond}})
	recv := &scriptNode{}
	sender := &scriptNode{}
	net.AddNode(0, sender)
	net.AddNode(1, recv)
	net.CutLink(0, 1)
	net.At(0, func() { sender.env.Send(1, testMsg{name: "lost", size: 1}) })
	net.RunUntil(10 * time.Millisecond)
	if len(recv.recvs) != 0 {
		t.Fatalf("message crossed a cut link")
	}
	if net.LinkUp(0, 1) || net.LinkUp(1, 0) {
		t.Fatalf("link reported up after cut")
	}
	net.HealLink(0, 1)
	net.At(net.Now(), func() { sender.env.Send(1, testMsg{name: "ok", size: 1}) })
	net.RunUntil(20 * time.Millisecond)
	if len(recv.recvs) != 1 {
		t.Fatalf("message lost after heal")
	}
}

func TestPartitionIsolatesGroup(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: time.Millisecond}})
	nodes := make([]*scriptNode, 4)
	for i := range nodes {
		nodes[i] = &scriptNode{}
		net.AddNode(smr.NodeID(i), nodes[i])
	}
	net.Partition(0, 1) // {0,1} vs {2,3}
	net.At(0, func() {
		nodes[0].env.Send(1, testMsg{name: "in", size: 1})
		nodes[0].env.Send(2, testMsg{name: "out", size: 1})
		nodes[2].env.Send(3, testMsg{name: "in2", size: 1})
		nodes[2].env.Send(1, testMsg{name: "out2", size: 1})
	})
	net.RunUntil(10 * time.Millisecond)
	if len(nodes[1].recvs) != 1 || nodes[1].recvs[0].Msg.Type() != "in" {
		t.Fatalf("intra-group delivery broken: %v", nodes[1].recvs)
	}
	if len(nodes[2].recvs) != 0 {
		t.Fatalf("message crossed partition")
	}
	if len(nodes[3].recvs) != 1 {
		t.Fatalf("other side intra-group delivery broken")
	}
	net.HealAll()
	net.At(net.Now(), func() { nodes[0].env.Send(2, testMsg{name: "healed", size: 1}) })
	net.RunUntil(20 * time.Millisecond)
	if len(nodes[2].recvs) != 1 {
		t.Fatalf("heal-all did not restore links")
	}
}

func TestTimersFireAndCancel(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: 0}})
	var cancelled smr.TimerID
	node := &scriptNode{}
	node.onStart = func(env smr.Env) {
		env.SetTimer(5*time.Millisecond, "keep")
		cancelled = env.SetTimer(time.Millisecond, "cancel")
		env.CancelTimer(cancelled)
	}
	net.AddNode(0, node)
	net.RunUntil(time.Second)
	if len(node.timers) != 1 || node.timers[0].Kind != "keep" {
		t.Fatalf("timers fired: %+v, want only 'keep'", node.timers)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: time.Hour}}) // wire latency must not apply
	node := &scriptNode{}
	node.onStart = func(env smr.Env) { env.Send(0, testMsg{name: "self", size: 1}) }
	net.AddNode(0, node)
	net.RunUntil(time.Second)
	if len(node.recvs) != 1 {
		t.Fatalf("loopback message not delivered: %d", len(node.recvs))
	}
}

func TestReplaceNodeResetsState(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: 0}})
	first := &scriptNode{}
	net.AddNode(0, first)
	net.AddNode(1, &scriptNode{})
	net.RunUntil(time.Millisecond)
	second := &scriptNode{}
	net.ReplaceNode(0, second)
	net.At(net.Now(), func() { net.nodes[1].node.(*scriptNode).env.Send(0, testMsg{name: "x", size: 1}) })
	net.RunUntil(10 * time.Millisecond)
	if len(first.recvs) != 0 || len(second.recvs) != 1 {
		t.Fatalf("replace routed to wrong instance (old=%d new=%d)", len(first.recvs), len(second.recvs))
	}
}

func TestStatsAndMessageCounts(t *testing.T) {
	net := New(Config{Latency: Uniform{Delay: 0}})
	net.AddNode(0, &scriptNode{onStart: func(env smr.Env) {
		env.Send(1, testMsg{name: "req", size: 100})
		env.Send(1, testMsg{name: "req", size: 100})
		env.Send(1, testMsg{name: "ack", size: 10})
	}})
	net.AddNode(1, &scriptNode{})
	net.RunUntil(time.Second)
	s0, s1 := net.Stats(0), net.Stats(1)
	if s0.MsgsSent != 3 || s0.BytesSent != 210 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.MsgsRecv != 3 || s1.BytesRecv != 210 {
		t.Fatalf("receiver stats %+v", s1)
	}
	counts := net.MessageCounts()
	if counts["req"] != 2 || counts["ack"] != 1 {
		t.Fatalf("message counts %v", counts)
	}
	if net.MessageBytes()["req"] != 200 {
		t.Fatalf("message bytes %v", net.MessageBytes())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		net := New(Config{
			Latency: &WANModel{
				Region:   func(id smr.NodeID) int { return int(id) % 2 },
				Profiles: SymmetricProfiles(2, map[[2]int]LinkProfile{{0, 1}: {AvgRTT: 80 * time.Millisecond, P9999: time.Second, P99999: 2 * time.Second, MaxRTT: 4 * time.Second}}, LinkProfile{AvgRTT: time.Millisecond, P9999: 10 * time.Millisecond, P99999: 20 * time.Millisecond, MaxRTT: 50 * time.Millisecond}),
			},
			Seed: 99,
		})
		recv := &scriptNode{}
		net.AddNode(0, &scriptNode{onStart: func(env smr.Env) {
			for i := 0; i < 50; i++ {
				env.Send(1, testMsg{name: "x", size: 100})
			}
		}})
		net.AddNode(1, recv)
		net.RunUntil(time.Minute)
		return recv.recvAt
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWANModelQuantileCalibration(t *testing.T) {
	profile := LinkProfile{
		AvgRTT: 88 * time.Millisecond,
		P9999:  1097 * time.Millisecond,
		P99999: 82190 * time.Millisecond,
		MaxRTT: 166390 * time.Millisecond,
	}
	w := &WANModel{
		Region:   func(id smr.NodeID) int { return int(id) },
		Profiles: SymmetricProfiles(2, map[[2]int]LinkProfile{{0, 1}: profile}, LinkProfile{}),
	}
	net := New(Config{Seed: 5})
	avg, q1, q2, maxRTT := w.MeasureRTTQuantiles(net.Rand(), 0, 1, 400000)

	within := func(got, want time.Duration, frac float64) bool {
		diff := float64(got - want)
		if diff < 0 {
			diff = -diff
		}
		return diff <= frac*float64(want)
	}
	if !within(avg, profile.AvgRTT, 0.10) {
		t.Errorf("avg RTT %v, want ≈%v", avg, profile.AvgRTT)
	}
	if !within(q1, profile.P9999, 0.50) {
		t.Errorf("99.99%% RTT %v, want ≈%v", q1, profile.P9999)
	}
	if q2 < profile.P9999 || q2 > profile.MaxRTT {
		t.Errorf("99.999%% RTT %v outside [%v,%v]", q2, profile.P9999, profile.MaxRTT)
	}
	if maxRTT > profile.MaxRTT {
		t.Errorf("max RTT %v exceeds profile max %v", maxRTT, profile.MaxRTT)
	}
}

func TestWANModelDisableTails(t *testing.T) {
	profile := LinkProfile{AvgRTT: 100 * time.Millisecond, P9999: 2 * time.Second, P99999: 40 * time.Second, MaxRTT: 90 * time.Second}
	w := &WANModel{
		Region:       func(id smr.NodeID) int { return int(id) },
		Profiles:     SymmetricProfiles(2, map[[2]int]LinkProfile{{0, 1}: profile}, LinkProfile{}),
		DisableTails: true,
	}
	net := New(Config{Seed: 6})
	for i := 0; i < 100000; i++ {
		if rtt := w.SampleRTT(net.Rand(), 0, 1); rtt >= profile.P9999 {
			t.Fatalf("tail sample %v with tails disabled", rtt)
		}
	}
}
