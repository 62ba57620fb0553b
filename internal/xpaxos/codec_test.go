package xpaxos

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// d32 builds a recognizable digest.
func d32(seed byte) crypto.Digest {
	var d crypto.Digest
	for i := range d {
		d[i] = seed + byte(i)
	}
	return d
}

func sampleRequest(i byte) Request {
	return Request{
		Op:     []byte{0x10 + i, 0x20, 0x30},
		TS:     1000 + uint64(i),
		Client: smr.ClientIDBase + smr.NodeID(i),
		Sig:    []byte("sig-" + string('a'+rune(i))),
	}
}

func sampleOrder(kind OrderKind, sn uint64) Order {
	return Order{
		Kind:    kind,
		BatchD:  d32(byte(sn)),
		SN:      smr.SeqNum(sn),
		View:    3,
		From:    1,
		RepRoot: d32(byte(sn) + 100),
		Sig:     []byte("order-sig"),
	}
}

func sampleBatch() Batch {
	return Batch{Reqs: []Request{sampleRequest(0), sampleRequest(1)}}
}

func samplePrepareEntry(sn uint64) PrepareEntry {
	return PrepareEntry{Batch: sampleBatch(), Primary: sampleOrder(KindPrepare, sn)}
}

func sampleCommitEntry(sn uint64) CommitEntry {
	return CommitEntry{
		Batch:   sampleBatch(),
		Primary: sampleOrder(KindCommit, sn),
		Commits: []Order{sampleOrder(KindCommit, sn+1)},
	}
}

func sampleCheckpointProof() CheckpointProof {
	return CheckpointProof{
		SN:     256,
		StateD: d32(9),
		Proof: []ChkptRecord{
			{SN: 256, View: 3, StateD: d32(9), From: 0, Sig: []byte("cs0")},
			{SN: 256, View: 3, StateD: d32(9), From: 1, Sig: []byte("cs1")},
		},
	}
}

func sampleViewChange() *MsgViewChange {
	return &MsgViewChange{
		NewView:    4,
		From:       2,
		Checkpoint: sampleCheckpointProof(),
		Snapshot:   []byte("snapshot-bytes"),
		CommitLog:  []CommitEntry{sampleCommitEntry(257)},
		PrepareLog: []PrepareEntry{samplePrepareEntry(258)},
		PreView:    3,
		FinalProof: []MsgVCConfirm{{NewView: 3, From: 1, VCSetD: d32(7), Sig: []byte("conf")}},
		Sig:        []byte("vc-sig"),
	}
}

// sampleMessages returns one populated instance of every XPaxos
// message type. Every tag must appear here: TestCodecCoversAllTags
// enforces it.
func sampleMessages() []smr.Message {
	return []smr.Message{
		&MsgReplicate{Req: sampleRequest(2)},
		&MsgResend{Req: sampleRequest(3)},
		&MsgPrepare{Entry: samplePrepareEntry(10)},
		&MsgCommitReq{Entry: samplePrepareEntry(11)},
		&MsgCommit{Order: sampleOrder(KindCommit, 12)},
		&MsgReply{
			From: 0, SN: 13, View: 3, TS: 77, Rep: []byte("reply-body"),
			Proof: crypto.MerkleProof{
				Siblings: []crypto.Digest{d32(1), d32(2)},
				Lefts:    []bool{true, false},
			},
			FollowerCommit: &Order{Kind: KindCommit, BatchD: d32(3), SN: 13, View: 3, From: 1, RepRoot: d32(4), Sig: []byte("m1")},
			MAC:            []byte("mac-bytes"),
		},
		&MsgReplyDigest{From: 1, SN: 14, View: 3, TS: 78, RepDigest: d32(5), MAC: []byte("macd")},
		&MsgReplySign{R: ReplySig{From: 0, SN: 15, View: 3, TS: 79, Client: smr.ClientIDBase, RepDigest: d32(6), Sig: []byte("rs")}},
		&MsgSignedReply{
			Rep: []byte("full-reply"),
			Replies: []ReplySig{
				{From: 0, SN: 16, View: 3, TS: 80, Client: smr.ClientIDBase, RepDigest: d32(7), Sig: []byte("r0")},
				{From: 1, SN: 16, View: 3, TS: 80, Client: smr.ClientIDBase, RepDigest: d32(7), Sig: []byte("r1")},
			},
		},
		&MsgSuspect{View: 3, From: 2, Sig: []byte("sus")},
		sampleViewChange(),
		&MsgVCFinal{NewView: 4, From: 0, VCSet: []*MsgViewChange{sampleViewChange()}, Sig: []byte("final")},
		&MsgVCConfirm{NewView: 4, From: 1, VCSetD: d32(8), Sig: []byte("confirm")},
		&MsgNewView{NewView: 4, From: 0, Prepares: []PrepareEntry{samplePrepareEntry(20)}, Sig: []byte("nv")},
		&MsgPrechk{SN: 512, View: 4, StateD: d32(10), From: 2, MAC: []byte("pmac")},
		&MsgChkpt{Rec: ChkptRecord{SN: 512, View: 4, StateD: d32(11), From: 0, Sig: []byte("ck")}},
		&MsgLazyChk{Proof: sampleCheckpointProof()},
		&MsgLazyCommit{Entry: sampleCommitEntry(513)},
		&MsgFaultProof{Kind: "fork-i", View: 5, Culprit: 1, SN: 514, EvidenceA: sampleViewChange(), EvidenceB: sampleViewChange()},
		&MsgForkIIQuery{View: 5, OldView: 4, Culprit: 1, SN: 515, Evidence: sampleViewChange()},
		&MsgViewInstalled{View: 6, From: 1, MAC: []byte("imac")},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		enc, err := MarshalMessage(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", m.Type(), err)
		}
		dec, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(m, dec) {
			t.Errorf("%s: round-trip mismatch:\n got %#v\nwant %#v", m.Type(), dec, m)
		}
		// Canonical form: re-encoding the decoded message reproduces the
		// original bytes exactly.
		re, err := MarshalMessage(dec)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", m.Type(), err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("%s: encoding not canonical (%d vs %d bytes)", m.Type(), len(enc), len(re))
		}
	}
}

// TestCodecCoversAllTags walks the tag table: every row needs a sample
// message, encoded under the row's tag.
func TestCodecCoversAllTags(t *testing.T) {
	seen := make(map[byte]string)
	for _, m := range sampleMessages() {
		enc, err := MarshalMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		seen[enc[0]] = m.Type()
	}
	for tag, name := range codec.Tags() {
		if seen[tag] != name {
			t.Errorf("tag %d (%s): sample messages cover it with %q", tag, name, seen[tag])
		}
	}
}

// TestReadmeTagTable compares README's wire-tag table with the codec's
// tag table, tag by tag and name by name (the names are Type() strings,
// which also key message counters and traces).
func TestReadmeTagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| tag | message | tag | message | tag | message |\n")
	if !ok {
		t.Fatal("README.md has no XPaxos wire-tag table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := make(map[byte]string)
	for _, cell := range regexp.MustCompile("\\| (\\d+) \\| `([a-z-]+)`").FindAllStringSubmatch(table, -1) {
		tag, err := strconv.Atoi(cell[1])
		if err != nil {
			t.Fatal(err)
		}
		documented[byte(tag)] = cell[2]
	}
	if !reflect.DeepEqual(documented, codec.Tags()) {
		t.Errorf("README.md wire-tag table:\n %v\ncodec tag table:\n %v", documented, codec.Tags())
	}
}

// TestCodecAllocations pins what a message costs the allocator on the
// hot path, at the counts the paired marshal/unmarshal codec had:
// encoding into a reused buffer allocates nothing; decoding allocates
// the walker, the message and one slice per non-empty repeated field
// (byte strings alias the input).
func TestCodecAllocations(t *testing.T) {
	payloads := benchPayloads()
	for _, tc := range []struct {
		name   string
		decode float64
	}{{"commit", 2}, {"batch20x1k", 3}} {
		m := payloads[tc.name]
		buf := wire.New(32 << 10)
		if got := testing.AllocsPerRun(100, func() {
			if err := AppendMessage(buf.Reset(), m); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: encoding allocates %v times, want 0", tc.name, got)
		}
		enc := buf.Done()
		if got := testing.AllocsPerRun(100, func() {
			if _, err := DecodeMessage(enc); err != nil {
				t.Fatal(err)
			}
		}); got != tc.decode {
			t.Errorf("%s: decoding allocates %v times, want %v", tc.name, got, tc.decode)
		}
	}
}

// TestCodecRejectsTruncation checks that every proper prefix of a valid
// encoding fails cleanly — truncated frames must never decode to a
// partially-filled message.
func TestCodecRejectsTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		enc, err := MarshalMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeMessage(enc[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded successfully", m.Type(), cut, len(enc))
			}
		}
	}
}

func TestCodecRejectsTrailingBytes(t *testing.T) {
	enc, err := MarshalMessage(&MsgSuspect{View: 1, From: 0, Sig: []byte("s")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestCodecRejectsNilVCSetEntry: a nil VCSet entry is unrepresentable
// on the wire, in both directions. The view-change handlers and
// MsgVCFinal.SigPayload dereference VCSet entries unconditionally, so a
// hostile frame must not be able to smuggle a nil past DecodeMessage.
func TestCodecRejectsNilVCSetEntry(t *testing.T) {
	if _, err := MarshalMessage(&MsgVCFinal{NewView: 4, VCSet: []*MsgViewChange{nil}, Sig: []byte("s")}); err == nil {
		t.Error("marshal accepted a nil VCSet entry")
	}
}

func TestCodecRejectsHostileCounts(t *testing.T) {
	// A MsgVCFinal claiming 2^32-1 view-change entries must fail before
	// allocating, not OOM.
	hostile := []byte{tagVCFinal,
		1, 0, 0, 0, 0, 0, 0, 0, // NewView
		0, 0, 0, 0, 0, 0, 0, 0, // From
		0xff, 0xff, 0xff, 0xff, // VCSet count
	}
	if _, err := DecodeMessage(hostile); err == nil {
		t.Error("hostile count accepted")
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeMessage([]byte{0xee}); err == nil {
		t.Error("unknown tag accepted")
	}
}

// FuzzUnmarshal feeds hostile bytes to DecodeMessage. The invariants:
// no panic, no hang, and any input that decodes successfully must
// re-encode to exactly the same bytes (canonical encoding).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		enc, err := MarshalMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{tagCommit, 0, 1, 2})
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
			t.Fatalf("encoding not canonical: %d in, %d out", len(b), len(re))
		}
	})
}
