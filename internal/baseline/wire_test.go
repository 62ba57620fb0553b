package baseline

import (
	"bytes"
	"testing"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// testProposal is a protocol message in miniature: an embedded
// Proposal plus a Type.
type testProposal struct{ Proposal }

func (m *testProposal) Type() string { return "test-proposal" }

const (
	tagTestRequest byte = iota + 1
	tagTestProposal
)

var (
	testDomain = NewDomain("t-")
	testCodec  = wire.NewCodec("baseline-test",
		wire.Row(tagTestRequest, (*MsgRequest).Code),
		wire.Row(tagTestProposal, (*testProposal).Code),
	)
)

// sampleMessages covers what every baseline codec inherits from the
// kit: signed and unsigned requests, non-empty and empty batches.
func sampleMessages() []smr.Message {
	signed := Request{Op: []byte("put k v"), TS: 9, Client: smr.ClientIDBase + 2, Sig: crypto.Signature("sig-bytes-0123456789")}
	unsigned := Request{Op: []byte("get k"), TS: 10, Client: smr.ClientIDBase}
	mac := crypto.MAC("mac-bytes-0123456789")
	return []smr.Message{
		&MsgRequest{Req: signed},
		&MsgRequest{Req: unsigned},
		&testProposal{Proposal{View: 3, SN: 17, Batch: Batch{Reqs: []Request{signed, unsigned}}, MAC: mac}},
		&testProposal{Proposal{View: 3, SN: 18, MAC: mac}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := testCodec.Marshal(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", m.Type(), err)
		}
		got, err := testCodec.Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type(), err)
		}
		if got.Type() != m.Type() {
			t.Fatalf("round trip changed type: %s -> %s", m.Type(), got.Type())
		}
		re, err := testCodec.Marshal(got)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", m.Type(), err)
		}
		if !bytes.Equal(b, re) {
			t.Fatalf("%s: encoding not canonical after round trip", m.Type())
		}
	}
}

func TestCodecRejectsTruncationAndTrailing(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := testCodec.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := testCodec.Decode(b[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded", m.Type(), cut, len(b))
			}
		}
		if _, err := testCodec.Decode(append(append([]byte(nil), b...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", m.Type())
		}
	}
}

// TestRejectsHostileCounts feeds encodings that claim huge element
// counts; the decoders must fail fast instead of allocating.
func TestRejectsHostileCounts(t *testing.T) {
	// A proposal whose batch claims 2^30 requests.
	b := wire.New(64).U8(tagTestProposal).U64(3).U64(17).U32(1 << 30).Done()
	if _, err := testCodec.Decode(b); err == nil {
		t.Fatal("hostile batch count accepted")
	}
	// An entry list that claims 2^31 entries.
	var es []Entry
	c := wire.Decoder(wire.New(8).U32(1 << 31).Done())
	if CodeEntries(c, &es); c.OK() || es != nil {
		t.Fatal("hostile entry count accepted")
	}
}

func TestCodecUnknownType(t *testing.T) {
	if err := testCodec.Append(wire.New(8), smr.Message(nil)); err == nil {
		t.Fatal("nil message encoded")
	}
	type stray struct{ MsgRequest }
	if err := testCodec.Append(wire.New(8), &stray{}); err == nil {
		t.Fatal("message outside the tag table encoded")
	}
	if _, err := testCodec.Decode([]byte{0xEE}); err == nil {
		t.Fatal("unknown tag decoded")
	}
	if _, err := testCodec.Decode(nil); err == nil {
		t.Fatal("empty input decoded")
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	batch := Batch{Reqs: []Request{{Op: []byte("x"), TS: 1, Client: smr.ClientIDBase}}}
	in := []Entry{{View: 3, SN: 17, Batch: batch}, {View: 2, SN: 18}}
	w := wire.New(64)
	CodeEntries(wire.Encoder(w), &in)
	var out []Entry
	c := wire.Decoder(w.Done())
	if CodeEntries(c, &out); !c.Done() || len(out) != 2 {
		t.Fatalf("entries did not round-trip: done=%v len=%d", c.Done(), len(out))
	}
	if out[0].View != 3 || out[0].SN != 17 || testDomain.Digest(&out[0].Batch) != testDomain.Digest(&batch) || len(out[1].Batch.Reqs) != 0 {
		t.Fatalf("entries changed in flight: %+v", out)
	}
}

// TestMergeEntries pins the leader-change merge rule shared by all four
// baselines: highest view wins per slot, gaps become empty batches, and
// the result is re-stamped with the new view.
func TestMergeEntries(t *testing.T) {
	b := func(op string) Batch {
		return Batch{Reqs: []Request{{Op: []byte(op), TS: 1, Client: smr.ClientIDBase}}}
	}
	got := MergeEntries(5, [][]Entry{
		{{View: 1, SN: 1, Batch: b("old")}, {View: 1, SN: 4, Batch: b("tail")}},
		{{View: 2, SN: 1, Batch: b("new")}, {View: 1, SN: 2, Batch: b("two")}},
		nil,
	})
	want := []string{"new", "two", "", "tail"}
	if len(got) != len(want) {
		t.Fatalf("merged %d slots, want %d", len(got), len(want))
	}
	for i, e := range got {
		op := ""
		if len(e.Batch.Reqs) > 0 {
			op = string(e.Batch.Reqs[0].Op)
		}
		if e.SN != smr.SeqNum(i+1) || e.View != 5 || op != want[i] {
			t.Errorf("slot %d = {view %d sn %d op %q}, want {5 %d %q}", i+1, e.View, e.SN, op, i+1, want[i])
		}
	}
	if len(MergeEntries(5, nil)) != 0 {
		t.Error("merging nothing produced entries")
	}
}

// TestDomainsSeparate pins that neither signed payloads nor digests
// collide across protocol domains.
func TestDomainsSeparate(t *testing.T) {
	other := NewDomain("u-")
	batch := Batch{Reqs: []Request{{Op: []byte("x"), TS: 1, Client: smr.ClientIDBase}}}
	if testDomain.Digest(&batch) == other.Digest(&batch) {
		t.Error("batch digests collide across domains")
	}
	w1, w2 := wire.New(32), wire.New(32)
	testDomain.AppendSigPayload(w1, &batch.Reqs[0])
	other.AppendSigPayload(w2, &batch.Reqs[0])
	if bytes.Equal(w1.Done(), w2.Done()) {
		t.Error("signed payloads collide across domains")
	}
}
