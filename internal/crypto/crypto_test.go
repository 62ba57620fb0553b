package crypto

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func suites(t *testing.T) map[string]Suite {
	t.Helper()
	return map[string]Suite{
		"ed25519": NewEd25519Suite(8, 42),
		"sim":     NewSimSuite(42),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("hello xft")
			sig := s.Sign(3, msg)
			if !s.Verify(3, msg, sig) {
				t.Fatalf("valid signature rejected")
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("payload")
			sig := s.Sign(1, msg)
			if s.Verify(2, msg, sig) {
				t.Fatalf("signature by node 1 verified against node 2")
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("payload")
			sig := s.Sign(1, msg)
			msg[0] ^= 0xff
			if s.Verify(1, msg, sig) {
				t.Fatalf("tampered message verified")
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("payload")
			sig := s.Sign(1, msg)
			sig[0] ^= 0xff
			if s.Verify(1, msg, sig) {
				t.Fatalf("tampered signature verified")
			}
		})
	}
}

func TestVerifyRejectsWrongLengthSignature(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if s.Verify(1, []byte("x"), Signature("short")) {
				t.Fatalf("short signature verified")
			}
			if s.Verify(1, []byte("x"), nil) {
				t.Fatalf("nil signature verified")
			}
		})
	}
}

func TestMACRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("channel data")
			mac := s.MAC(0, 5, msg)
			if !s.VerifyMAC(0, 5, msg, mac) {
				t.Fatalf("valid MAC rejected")
			}
			// MAC keys are symmetric per pair: receiver verifies with
			// the same pairwise key.
			if !s.VerifyMAC(5, 0, msg, mac) {
				t.Fatalf("pairwise MAC rejected in reverse direction")
			}
		})
	}
}

func TestMACRejectsWrongChannel(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("channel data")
			mac := s.MAC(0, 5, msg)
			if s.VerifyMAC(0, 6, msg, mac) {
				t.Fatalf("MAC for 0->5 verified on 0->6")
			}
		})
	}
}

func TestMACRejectsTamperedData(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("channel data")
			mac := s.MAC(0, 5, msg)
			msg[0] ^= 1
			if s.VerifyMAC(0, 5, msg, mac) {
				t.Fatalf("tampered data verified")
			}
		})
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	a := NewEd25519Suite(4, 7)
	b := NewEd25519Suite(4, 7)
	msg := []byte("det")
	if !bytes.Equal(a.Sign(2, msg), b.Sign(2, msg)) {
		t.Fatalf("same seed produced different ed25519 keys")
	}
	c := NewEd25519Suite(4, 8)
	if bytes.Equal(a.Sign(2, msg), c.Sign(2, msg)) {
		t.Fatalf("different seeds produced identical signatures")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestEd25519OutOfRangeIDs: an id outside 0..n-1, negative included,
// has no keys whether or not the suite has derived any yet, and asking
// about it derives nothing.
func TestEd25519OutOfRangeIDs(t *testing.T) {
	const n = 4
	msg := []byte("out of range")
	ref := NewEd25519Suite(n, 1)
	sig, mac := ref.Sign(0, msg), ref.MAC(0, 1, msg)
	warmed := NewEd25519Suite(n, 1)
	for id := NodeID(0); id < n; id++ {
		warmed.Sign(id, msg)
	}
	for name, s := range map[string]*Ed25519Suite{"fresh": NewEd25519Suite(n, 1), "warmed": warmed} {
		t.Run(name, func(t *testing.T) {
			for _, id := range []NodeID{-1, n, n + 5} {
				mustPanic(t, fmt.Sprintf("Sign(%d)", id), func() { s.Sign(id, msg) })
				mustPanic(t, fmt.Sprintf("MAC(%d, 0)", id), func() { s.MAC(id, 0, msg) })
				mustPanic(t, fmt.Sprintf("MAC(0, %d)", id), func() { s.MAC(0, id, msg) })
				if s.Verify(id, msg, sig) {
					t.Errorf("Verify(%d) accepted node 0's signature", id)
				}
				if s.VerifyMAC(id, 1, msg, mac) || s.VerifyMAC(0, id, msg, mac) {
					t.Errorf("VerifyMAC accepted the 0->1 MAC on a channel of %d", id)
				}
				if s.BatchVerify([]VerifyJob{{ID: 0, Data: msg, Sig: sig}, {ID: id, Data: msg, Sig: sig}}) {
					t.Errorf("BatchVerify accepted a job naming %d", id)
				}
				if s.PublicKey(id) != nil || s.PrivateKey(id) != nil {
					t.Errorf("id %d has a key", id)
				}
			}
			s.keys.Range(func(k, _ any) bool {
				if id := k.(NodeID); id < 0 || id >= n {
					t.Errorf("keys were derived for id %d", id)
				}
				return true
			})
		})
	}
}

// TestEd25519ConcurrentFirstUse: 16 goroutines touch the same fresh ids
// at once, each through a different entry point first; every answer
// must match a suite that derived the keys alone.
func TestEd25519ConcurrentFirstUse(t *testing.T) {
	const n, workers = 8, 16
	msg := []byte("first use")
	ref := NewEd25519Suite(n, 3)
	peer := func(id NodeID) NodeID { return (id + 1) % n }
	var sigs [n]Signature
	var macs [n]MAC
	for id := NodeID(0); id < n; id++ {
		sigs[id], macs[id] = ref.Sign(id, msg), ref.MAC(id, peer(id), msg)
	}
	s := NewEd25519Suite(n, 3)
	ops := []func(id NodeID) bool{
		func(id NodeID) bool { return bytes.Equal(s.Sign(id, msg), sigs[id]) },
		func(id NodeID) bool { return s.Verify(id, msg, sigs[id]) },
		func(id NodeID) bool { return s.BatchVerify([]VerifyJob{{ID: id, Data: msg, Sig: sigs[id]}}) },
		func(id NodeID) bool { return bytes.Equal(s.MAC(id, peer(id), msg), macs[id]) },
		func(id NodeID) bool { return s.VerifyMAC(peer(id), id, msg, macs[id]) },
		func(id NodeID) bool { return bytes.Equal(s.PrivateKey(id), ref.PrivateKey(id)) },
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for id := NodeID(0); id < n; id++ {
				for i := range ops {
					if op := (w + i) % len(ops); !ops[op](id) {
						t.Errorf("worker %d: op %d on node %d disagrees with the reference", w, op, id)
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

var suiteSink *Ed25519Suite

// TestNewEd25519SuiteIsConstant guards against building keys up front:
// a suite for a cluster plus 1024 client ids costs what an empty one
// does.
func TestNewEd25519SuiteIsConstant(t *testing.T) {
	if a := testing.AllocsPerRun(10, func() { suiteSink = NewEd25519Suite(3+1024, 1) }); a > 2 {
		t.Fatalf("NewEd25519Suite(3+1024, 1) makes %.0f allocations, want at most 2", a)
	}
}

func TestSimSuiteDeterminism(t *testing.T) {
	a := NewSimSuite(7)
	b := NewSimSuite(7)
	if !bytes.Equal(a.Sign(1, []byte("m")), b.Sign(1, []byte("m"))) {
		t.Fatalf("sim suite not deterministic across instances")
	}
}

func TestHashPartsMatchesConcatenation(t *testing.T) {
	check := func(a, b, c []byte) bool {
		joined := append(append(append([]byte{}, a...), b...), c...)
		return HashParts(a, b, c) == Hash(joined)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	// Past the stack buffer the concatenation moves to the heap.
	long := bytes.Repeat([]byte{7}, 200)
	if !check(long, long, []byte("x")) {
		t.Fatal("HashParts differs from the concatenation's hash past 256 bytes")
	}
}

var digestSink Digest

// TestHashPartsDoesNotAllocate guards the stack buffer: a Merkle-node
// sized call makes no heap allocation.
func TestHashPartsDoesNotAllocate(t *testing.T) {
	a, b, c := make([]byte, 8), make([]byte, 32), make([]byte, 32)
	if n := testing.AllocsPerRun(100, func() { digestSink = HashParts(a, b, c) }); n != 0 {
		t.Fatalf("HashParts over 3 parts, 72 bytes makes %.0f allocations, want 0", n)
	}
}

func TestSignaturePropertyRandomMessages(t *testing.T) {
	s := NewSimSuite(99)
	check := func(id uint8, msg []byte) bool {
		node := NodeID(id % 16)
		sig := s.Sign(node, msg)
		return s.Verify(node, msg, sig) && !s.Verify(node+1, msg, sig)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterCounts(t *testing.T) {
	m := NewMeter(NewSimSuite(1))
	msg := make([]byte, 100)
	sig := m.Sign(0, msg)
	m.Verify(0, msg, sig)
	m.Verify(0, msg, sig)
	mac := m.MAC(0, 1, msg)
	m.VerifyMAC(0, 1, msg, mac)
	m.Digest(msg)

	got := m.Total()
	want := Counts{Signs: 1, Verifies: 2, MACs: 1, MACVerifies: 1, Digests: 1, Bytes: 600}
	if got != want {
		t.Fatalf("meter counts = %+v, want %+v", got, want)
	}
}

func TestMeterWindowResets(t *testing.T) {
	m := NewMeter(NewSimSuite(1))
	m.Sign(0, []byte("a"))
	w1 := m.TakeWindow()
	if w1.Signs != 1 {
		t.Fatalf("first window signs = %d, want 1", w1.Signs)
	}
	w2 := m.TakeWindow()
	if w2 != (Counts{}) {
		t.Fatalf("second window not empty: %+v", w2)
	}
	if m.Total().Signs != 1 {
		t.Fatalf("total lost after window take")
	}
}

func TestCostModelCharges(t *testing.T) {
	cm := CostModel{
		SignCost:    100 * time.Microsecond,
		VerifyCost:  10 * time.Microsecond,
		MACCost:     time.Microsecond,
		DigestCost:  time.Microsecond,
		PerByteCost: time.Nanosecond,
	}
	c := Counts{Signs: 2, Verifies: 3, MACs: 1, MACVerifies: 1, Digests: 4, Bytes: 1000}
	got := c.Cost(cm)
	want := 200*time.Microsecond + 30*time.Microsecond + 2*time.Microsecond + 4*time.Microsecond + 1000*time.Nanosecond
	if got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestDefaultCostModelSignDominates(t *testing.T) {
	cm := DefaultCostModel()
	if cm.SignCost <= cm.VerifyCost || cm.VerifyCost <= cm.MACCost {
		t.Fatalf("expected Sign > Verify > MAC cost ordering, got %+v", cm)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{Signs: 1, Bytes: 10}
	a.Add(Counts{Signs: 2, Verifies: 5, Bytes: 1})
	if a.Signs != 3 || a.Verifies != 5 || a.Bytes != 11 {
		t.Fatalf("add mismatch: %+v", a)
	}
}

func TestWireSizes(t *testing.T) {
	sim := NewSimSuite(1)
	if sim.SignatureSize() != 128 || sim.MACSize() != 20 {
		t.Fatalf("sim suite should model RSA-1024/HMAC-SHA1 wire sizes, got %d/%d", sim.SignatureSize(), sim.MACSize())
	}
	ed := NewEd25519Suite(2, 1)
	if ed.SignatureSize() != 64 || ed.MACSize() != 32 {
		t.Fatalf("ed25519 sizes: got %d/%d", ed.SignatureSize(), ed.MACSize())
	}
}

func BenchmarkSimSign(b *testing.B) {
	s := NewSimSuite(1)
	msg := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sign(0, msg)
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	s := NewEd25519Suite(1, 1)
	msg := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sign(0, msg)
	}
}
