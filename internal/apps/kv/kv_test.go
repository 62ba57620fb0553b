package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"github.com/xft-consensus/xft/internal/wire"
)

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	if rep := s.Execute(PutOp("k", []byte("v"))); rep[0] != StatusOK {
		t.Fatalf("put status %d", rep[0])
	}
	rep := s.Execute(GetOp("k"))
	if rep[0] != StatusOK || !bytes.Equal(rep[1:], []byte("v")) {
		t.Fatalf("get reply %v", rep)
	}
	if rep := s.Execute(DeleteOp("k")); rep[0] != StatusOK {
		t.Fatalf("delete status %d", rep[0])
	}
	if rep := s.Execute(GetOp("k")); rep[0] != StatusNotFound {
		t.Fatalf("get after delete status %d", rep[0])
	}
	if rep := s.Execute(DeleteOp("k")); rep[0] != StatusNotFound {
		t.Fatalf("double delete status %d", rep[0])
	}
}

func TestAppend(t *testing.T) {
	s := NewStore()
	s.Execute(AppendOp("log", []byte("a")))
	s.Execute(AppendOp("log", []byte("b")))
	rep := s.Execute(GetOp("log"))
	if !bytes.Equal(rep[1:], []byte("ab")) {
		t.Fatalf("append result %q", rep[1:])
	}
}

func TestBadOpsRejected(t *testing.T) {
	s := NewStore()
	for _, op := range [][]byte{nil, {}, {99}, {OpPut, 0xff}} {
		if rep := s.Execute(op); rep[0] != StatusBadOp {
			t.Errorf("op %v accepted: %v", op, rep)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	s.Execute(PutOp("a", []byte("1")))
	s.Execute(PutOp("b", []byte("2")))
	snap := s.Snapshot()
	r := NewStore()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Snapshot(), snap) || r.Len() != 2 {
		t.Fatalf("restore mismatch")
	}
	if err := r.Restore([]byte{1, 2}); err == nil {
		t.Fatalf("corrupt snapshot accepted")
	}
}

// TestSnapshotOneAllocation: a large store's snapshot is built in one
// buffer of its exact size, not regrown through its values, and its
// bytes are the encoding checkpoint digests have always covered.
func TestSnapshotOneAllocation(t *testing.T) {
	s := NewStore()
	val := bytes.Repeat([]byte{0xab}, 4096)
	for i := 0; i < 1000; i++ {
		s.Execute(PutOp(fmt.Sprintf("key-%04d", i), val))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := s.Snapshot()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.1*float64(len(snap)) {
		t.Errorf("Snapshot allocated %d bytes for a %d-byte encoding", alloc, len(snap))
	}

	// The encoding as first written: a count, then each key and value
	// length-prefixed, keys ascending.
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := wire.New(0).U32(uint32(len(keys)))
	for _, k := range keys {
		w.Str(k).Bytes(s.data[k])
	}
	if !bytes.Equal(snap, w.Done()) {
		t.Fatal("snapshot bytes differ from the established encoding")
	}
}

func TestNullService(t *testing.T) {
	n := &Null{ReplySize: 8}
	rep := n.Execute([]byte("anything"))
	if len(rep) != 8 {
		t.Fatalf("reply size %d", len(rep))
	}
	if n.Executed != 1 {
		t.Fatalf("executed %d", n.Executed)
	}
	snap := n.Snapshot()
	m := &Null{}
	if err := m.Restore(snap); err != nil || m.Executed != 1 {
		t.Fatalf("null restore: %v %d", err, m.Executed)
	}
}

func TestPropertyDeterministicReplay(t *testing.T) {
	check := func(ops []uint8) bool {
		a, b := NewStore(), NewStore()
		keys := []string{"x", "y", "z"}
		for i, o := range ops {
			k := keys[int(o)%3]
			var op []byte
			switch o % 3 {
			case 0:
				op = PutOp(k, []byte{o, byte(i)})
			case 1:
				op = AppendOp(k, []byte{o})
			case 2:
				op = DeleteOp(k)
			}
			if !bytes.Equal(a.Execute(op), b.Execute(op)) {
				return false
			}
		}
		return bytes.Equal(a.Snapshot(), b.Snapshot())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqPutAdapter(t *testing.T) {
	s := NewStore()
	if _, ok := s.LastSeq("c1"); ok {
		t.Fatal("LastSeq on missing key should fail")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if rep := s.Execute(SeqPutOp("c1", seq)); rep[0] != StatusOK {
			t.Fatalf("seq put %d: status %d", seq, rep[0])
		}
	}
	got, ok := s.LastSeq("c1")
	if !ok || got != 5 {
		t.Fatalf("LastSeq = %d,%v, want 5,true", got, ok)
	}
	if v, ok := SeqFromValue([]byte{1}); ok {
		t.Fatalf("SeqFromValue on short value = %d, want !ok", v)
	}
}
