package xpaxos

// Micro-benchmark of the wire codec on the frames the TCP
// transport ships.
// Run with: go test ./internal/xpaxos -bench=BenchmarkCodec -benchmem

import (
	"bytes"
	"testing"

	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wire"
)

// benchPayloads returns representative hot-path and worst-case
// messages: a lone commit vote, a full batch of 20 1 kB requests, and
// a view-change message carrying log entries.
func benchPayloads() map[string]smr.Message {
	op := bytes.Repeat([]byte("x"), 1024)
	sig := bytes.Repeat([]byte("s"), 64)
	batch := Batch{}
	for i := 0; i < 20; i++ {
		batch.Reqs = append(batch.Reqs, Request{
			Op: op, TS: uint64(i), Client: smr.ClientIDBase + smr.NodeID(i), Sig: sig,
		})
	}
	return map[string]smr.Message{
		"commit": &MsgCommit{Order: sampleOrder(KindCommit, 42)},
		"batch20x1k": &MsgCommitReq{Entry: PrepareEntry{
			Batch: batch, Primary: sampleOrder(KindCommit, 43),
		}},
		"viewchange": sampleViewChange(),
	}
}

func BenchmarkCodecWire(b *testing.B) {
	for name, m := range benchPayloads() {
		b.Run(name, func(b *testing.B) {
			buf := wire.New(4 << 10)
			buf.I64(0)
			if err := AppendMessage(buf, m); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(buf.Done())), "bytes/msg")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				buf.I64(0) // sender id, as framed by the transport
				if err := AppendMessage(buf, m); err != nil {
					b.Fatal(err)
				}
				if _, err := DecodeMessage(buf.Done()[8:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
