package paxos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/xft-consensus/xft/internal/baseline"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// goldenBatch is the fixed batch behind testdata/wire.golden: one
// signed and one unsigned request.
func goldenBatch() Batch {
	return Batch{Reqs: []Request{
		{Op: []byte("put k v"), TS: 9, Client: smr.ClientIDBase + 2, Sig: crypto.Signature("sig-bytes-0123456789")},
		{Op: []byte("get k"), TS: 10, Client: smr.ClientIDBase},
	}}
}

// goldenSigned returns the bytes a client signs over the first golden
// request and the digest of the golden batch.
func goldenSigned() ([]byte, crypto.Digest) {
	batch := goldenBatch()
	w := wire.New(64)
	domain.AppendSigPayload(w, &batch.Reqs[0])
	return w.Done(), domain.Digest(&batch)
}

// goldenMessages covers every message type, with empty and non-empty
// batches and signed and unsigned requests.
func goldenMessages() []smr.Message {
	batch := goldenBatch()
	d := domain.Digest(&batch)
	mac := crypto.MAC("mac-bytes-0123456789")
	return []smr.Message{
		&MsgRequest{Req: batch.Reqs[0]},
		&MsgRequest{Req: batch.Reqs[1]},
		&MsgAccept{baseline.Proposal{View: 3, SN: 17, Batch: batch, MAC: mac}},
		&MsgAccept{baseline.Proposal{View: 3, SN: 18, MAC: mac}},
		&MsgAccepted{View: 3, SN: 17, D: d, From: 1, MAC: mac},
		&MsgCommit{View: 3, SN: 17, D: d, MAC: mac},
		&MsgLearn{baseline.Proposal{View: 3, SN: 17, Batch: batch, MAC: mac}},
		&MsgLearn{baseline.Proposal{View: 3, SN: 18, MAC: mac}},
		&MsgReply{From: 0, View: 3, TS: 9, Rep: []byte("ok"), MAC: mac},
		&MsgReply{From: 0, View: 3, TS: 10, MAC: mac},
		&MsgPrepare{View: 4, From: 2},
		&MsgPromise{View: 4, From: 2, Executed: 16},
		&MsgPromise{View: 4, From: 2, Executed: 16, Accepted: []Entry{
			{View: 3, SN: 17, Batch: batch},
			{View: 2, SN: 18},
		}},
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire.golden from the current encoder")

// TestWireGolden pins every byte this codec puts on the wire, under a
// client signature and under a batch digest: testdata/wire.golden was
// generated before the baselines moved onto internal/baseline and must
// never change without a deliberate wire-format bump.
func TestWireGolden(t *testing.T) {
	var sb strings.Builder
	for _, m := range goldenMessages() {
		b, err := MarshalMessage(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Type(), err)
		}
		fmt.Fprintf(&sb, "%s %x\n", m.Type(), b)
	}
	payload, digest := goldenSigned()
	fmt.Fprintf(&sb, "sig-payload %x\nbatch-digest %x\n", payload, digest[:])
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
