package xpaxos

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// goldenMessages covers every tag twice where the type has anything
// optional: once populated (the codec tests' samples) and once with
// every slice, byte string and optional part empty — no requests, no
// commits, an empty Merkle proof, an absent FollowerCommit, absent
// evidence.
func goldenMessages() []smr.Message {
	bare := PrepareEntry{Primary: Order{Kind: KindPrepare, SN: 30, View: 3}}
	return append(sampleMessages(),
		&MsgReplicate{Req: Request{TS: 1, Client: smr.ClientIDBase}},
		&MsgResend{Req: Request{TS: 2, Client: smr.ClientIDBase}},
		&MsgPrepare{Entry: bare},
		&MsgCommitReq{Entry: bare},
		&MsgCommit{Order: Order{Kind: KindCommit, SN: 31, View: 3, From: 2}},
		&MsgReply{From: 1, SN: 32, View: 3, TS: 81, MAC: []byte("m")},
		&MsgReplyDigest{From: 2, SN: 33, View: 3, TS: 82},
		&MsgReplySign{R: ReplySig{From: 1, SN: 34, View: 3, TS: 83, Client: smr.ClientIDBase}},
		&MsgSignedReply{},
		&MsgSuspect{View: 3, From: 1},
		&MsgViewChange{NewView: 4, From: 1},
		&MsgVCFinal{NewView: 4, From: 1},
		&MsgVCFinal{NewView: 4, From: 2, VCSet: []*MsgViewChange{{NewView: 4, From: 0}, sampleViewChange()}, Sig: []byte("f2")},
		&MsgVCConfirm{NewView: 4, From: 2},
		&MsgNewView{NewView: 4, From: 1},
		&MsgPrechk{SN: 512, View: 4, From: 1},
		&MsgChkpt{Rec: ChkptRecord{SN: 512, View: 4, From: 1}},
		&MsgLazyChk{Proof: CheckpointProof{SN: 512, StateD: d32(12)}},
		&MsgLazyCommit{Entry: CommitEntry{Primary: Order{Kind: KindCommit, SN: 35, View: 3}}},
		&MsgFaultProof{Kind: "state-loss", View: 5, Culprit: 2, SN: 516},
		&MsgFaultProof{View: 5, Culprit: 2, SN: 517, EvidenceB: sampleViewChange()},
		&MsgForkIIQuery{View: 5, OldView: 4, Culprit: 2, SN: 518},
		&MsgViewInstalled{View: 6, From: 2},
	)
}

// TestWireGolden pins the three byte formats other machines and other
// runs depend on: every message as the codec puts it on the wire, the
// payloads that signatures and digests cover, and the records the
// write-ahead log holds. testdata/wire.golden was generated while the
// codec was paired marshal/unmarshal functions, before every type
// became one field list, and must never change without a deliberate
// format bump.
func TestWireGolden(t *testing.T) {
	var sb strings.Builder
	seen := make(map[byte]int)
	for _, m := range goldenMessages() {
		b, err := MarshalMessage(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Type(), err)
		}
		seen[b[0]]++
		fmt.Fprintf(&sb, "%s %x\n", m.Type(), b)
	}
	for tag, name := range codec.Tags() {
		if seen[tag] < 2 {
			t.Errorf("tag %d (%s) has %d golden lines, want a populated and an empty one", tag, name, seen[tag])
		}
	}

	req, batch := sampleRequest(0), sampleBatch()
	order := sampleOrder(KindCommit, 12)
	vc := sampleViewChange()
	final := &MsgVCFinal{NewView: 4, From: 0, VCSet: []*MsgViewChange{vc, {NewView: 4, From: 1}}}
	nv := &MsgNewView{NewView: 4, From: 0, Prepares: []PrepareEntry{samplePrepareEntry(20)}}
	commit, proof := sampleCommitEntry(40), sampleCheckpointProof()
	digest := func(d crypto.Digest) []byte { return d[:] }
	for _, line := range []struct {
		name string
		b    []byte
	}{
		{"request-sig-payload", req.SigPayload()},
		{"request-digest", digest(req.Digest())},
		{"batch-digest", digest(batch.Digest())},
		{"empty-batch-digest", digest(new(Batch).Digest())},
		{"order-sig-payload", order.SigPayload()},
		{"view-change-sig-payload", vc.SigPayload()},
		{"vc-final-sig-payload", final.SigPayload()},
		{"new-view-sig-payload", nv.SigPayload()},
		{"wal-commit", encodeCommitRecord(&commit)},
		{"wal-commit", encodeCommitRecord(&CommitEntry{Primary: Order{Kind: KindCommit, SN: 41, View: 3}})},
		{"wal-checkpoint", encodeCheckpointRecord(&proof, []byte("snapshot-bytes"))},
		{"wal-checkpoint", encodeCheckpointRecord(&CheckpointProof{SN: 8}, nil)},
	} {
		fmt.Fprintf(&sb, "%s %x\n", line.name, line.b)
	}

	const path = "testdata/wire.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("wire encoding drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
