package main

import (
	"os"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wal"
	"github.com/xft-consensus/xft/internal/wire"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// rawFloors times each layer's basic operation alone, on this host,
// before a traced pass: one signature, one verification, a batch of 20
// verifications, one 1 KiB append+fsync, one encoding of a 20x1 KiB
// batch. They tell a reader how far the in-situ figures of the traced
// pass sit above what the layer costs by itself here.
func rawFloors(seed int64) (map[string]float64, error) {
	suite := crypto.NewEd25519Suite(4, seed)
	payload := make([]byte, 1100) // a 1 KiB put's signed bytes
	perCall := func(n int, f func()) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	sig := suite.Sign(1, payload)
	jobs := make([]crypto.VerifyJob, 20)
	for i := range jobs {
		jobs[i] = crypto.VerifyJob{ID: 1, Data: payload, Sig: sig}
	}
	m := map[string]float64{
		"crypto.raw_sign_us":            perCall(200, func() { suite.Sign(1, payload) }) / 1e3,
		"crypto.raw_verify_us":          perCall(200, func() { suite.Verify(1, payload, sig) }) / 1e3,
		"crypto.raw_batch20_us_per_sig": perCall(20, func() { suite.BatchVerify(jobs) }) / 20 / 1e3,
		"wire.raw_encode_batch20x1k_ns": 0,
	}

	reqs := make([]xpaxos.Request, 20)
	for i := range reqs {
		reqs[i] = xpaxos.Request{Op: payload[:1040], TS: uint64(i + 1), Client: smr.ClientIDBase, Sig: sig}
	}
	msg := &xpaxos.MsgCommitReq{Entry: xpaxos.PrepareEntry{
		Batch:   xpaxos.Batch{Reqs: reqs},
		Primary: xpaxos.Order{Kind: xpaxos.KindCommit, SN: 1, Sig: sig},
	}}
	buf := wire.New(32 << 10)
	var encErr error
	m["wire.raw_encode_batch20x1k_ns"] = perCall(200, func() {
		if err := xpaxos.AppendMessage(buf.Reset(), msg); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return nil, encErr
	}

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "fsync-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	var syncMS []float64
	for i := 0; i < 30; i++ {
		start := time.Now()
		if _, err := log.Append(payload[:1024]); err != nil {
			log.Close()
			return nil, err
		}
		if err := log.Sync(); err != nil {
			log.Close()
			return nil, err
		}
		syncMS = append(syncMS, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["wal.raw_fsync_ms"] = median(syncMS)
	return m, log.Close()
}
