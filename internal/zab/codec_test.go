package zab

import (
	"bytes"
	"testing"

	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// sampleMessages returns one populated instance of every message type
// the codec handles.
func sampleMessages() []smr.Message {
	suite := crypto.NewSimSuite(7)
	req := Request{Op: []byte("put k v"), TS: 9, Client: smr.ClientIDBase + 2}
	w := wire.New(64)
	domain.AppendSigPayload(w, &req)
	req.Sig = suite.Sign(crypto.NodeID(req.Client), w.Done())
	batch := Batch{Reqs: []Request{req, {Op: []byte("get k"), TS: 10, Client: smr.ClientIDBase}}}
	mac := crypto.MAC([]byte("mac-bytes-0123456789"))
	entries := []Entry{
		{View: 3, SN: 17, Batch: batch},
		{View: 2, SN: 18, Batch: Batch{}},
	}
	return []smr.Message{
		&MsgRequest{Req: req},
		&MsgPropose{baseline.Proposal{View: 3, SN: 17, Batch: batch, MAC: mac}},
		&MsgAck{Epoch: 3, ZXID: 17, From: 1, MAC: mac},
		&MsgCommit{Epoch: 3, ZXID: 17, MAC: mac},
		&MsgReply{From: 0, TS: 9, Rep: []byte("ok"), MAC: mac},
		&MsgEpochChange{Epoch: 4, From: 2, Entries: entries},
		&MsgNewEpoch{Epoch: 4, Entries: entries, MAC: mac},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := MarshalMessage(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", m.Type(), err)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type(), err)
		}
		if got.Type() != m.Type() {
			t.Fatalf("round trip changed type: %s -> %s", m.Type(), got.Type())
		}
		re, err := MarshalMessage(got)
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
		b, err := MarshalMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := DecodeMessage(b[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded", m.Type(), cut, len(b))
			}
		}
		if _, err := DecodeMessage(append(append([]byte(nil), b...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", m.Type())
		}
	}
}

// TestCodecRejectsHostileCounts feeds an encoding that claims a huge
// element count; the decoder must fail fast instead of allocating.
func TestCodecRejectsHostileCounts(t *testing.T) {
	// An epoch-change whose Entries count claims 2^31 entries.
	b := wire.New(64).U8(tagEpochChange).U64(4).I64(2).U32(1 << 31).Done()
	if _, err := DecodeMessage(b); err == nil {
		t.Fatal("hostile entry count accepted")
	}
}

// TestBulkMarks pins which messages are background traffic: the
// log-carrying recovery messages are sheddable, everything on the
// broadcast path is critical.
func TestBulkMarks(t *testing.T) {
	for _, m := range sampleMessages() {
		want := false
		switch m.(type) {
		case *MsgEpochChange, *MsgNewEpoch:
			want = true
		}
		if got := smr.IsBulk(m); got != want {
			t.Errorf("%s: IsBulk = %v, want %v", m.Type(), got, want)
		}
	}
}

// FuzzUnmarshal asserts the decoder is total (no panics, bounded
// allocation) and the encoding canonical: any input that decodes must
// re-marshal to exactly the input bytes.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		b, err := MarshalMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{tagEpochChange, 0xff, 0xff, 0xff, 0xff})
	f.Add(wire.New(16).U8(tagPropose).U64(1).U64(1).U32(1 << 29).Done())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		re, err := MarshalMessage(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-marshal: %v", err)
		}
		if !bytes.Equal(b, re) {
			t.Fatalf("non-canonical encoding: %x decoded then re-encoded to %x", b, re)
		}
	})
}
