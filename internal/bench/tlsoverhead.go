package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/deploy"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// TLSOverhead measures what mutual TLS 1.3 costs on the live TCP
// loopback deployment: the same 3-replica XPaxos cluster (t = 1, real
// Ed25519 signatures, keepalive probing on, a checkpoint every 256
// batches) is driven by one open-loop client twice — plaintext, then
// with the transport's AutoTLS channel security — and the throughput
// and latency deltas are reported. Loopback has no propagation delay, so this
// upper-bounds the relative overhead: on a WAN the handshake is a
// one-time cost and the symmetric-crypto cost shrinks against real
// RTTs.
//
// Wall-clock on a shared host is noisy; like the other live-cluster
// experiments this is a report, not a CI gate — the CI smoke job runs
// it at quick scale to prove the TLS path end to end.
func TLSOverhead(w io.Writer, sc Scale) {
	ops, window := 2000, 16
	if sc.Quick {
		ops, window = 300, 8
	}
	fmt.Fprintf(w, "TLS channel-security overhead, 3-replica loopback cluster (%d ops, window %d)\n", ops, window)
	fmt.Fprintf(w, "%10s  %10s  %12s  %12s\n", "mode", "ops/s", "p50", "p99")
	plain := runLoopbackCluster(false, ops, window)
	fmt.Fprintf(w, "%10s  %10.0f  %12s  %12s\n", "plaintext", plain.opsPerSec, plain.p50, plain.p99)
	secured := runLoopbackCluster(true, ops, window)
	fmt.Fprintf(w, "%10s  %10.0f  %12s  %12s\n", "tls", secured.opsPerSec, secured.p50, secured.p99)
	fmt.Fprintf(w, "throughput ratio tls/plaintext: %.2f\n", secured.opsPerSec/plain.opsPerSec)
}

type loopbackResult struct {
	opsPerSec float64
	p50, p99  time.Duration
}

// runLoopbackCluster stands up a full TCP deployment on 127.0.0.1 —
// three xpaxos replicas and one windowed client, each built like any
// live node through deploy.Spec — commits the given number of 512-byte
// writes, and tears everything down.
func runLoopbackCluster(withTLS bool, ops, window int) loopbackResult {
	const tf = 1
	keys := deploy.Keys(tf, 42)
	peers := map[smr.NodeID]string{}
	spec := func(id smr.NodeID) deploy.Spec {
		return deploy.Spec{
			ID: id, T: tf, Keys: keys, Listen: "127.0.0.1:0", Peers: peers,
			Insecure: !withTLS, ProbeInterval: 500 * time.Millisecond, ProbeTimeout: 2 * time.Second,
		}
	}
	var hosts []*deploy.Host
	defer func() {
		for _, h := range hosts {
			h.Stop()
		}
	}()
	for i := 0; i < 2*tf+1; i++ {
		_, h, err := spec(smr.NodeID(i)).Replica(xpaxos.Config{
			Delta:          500 * time.Millisecond,
			BatchTimeout:   2 * time.Millisecond,
			RequestTimeout: 10 * time.Second,
		}, kv.NewStore())
		if err != nil {
			panic(err)
		}
		peers[smr.NodeID(i)] = h.Addr()
		hosts = append(hosts, h)
	}

	type completion struct{ lat time.Duration }
	done := make(chan completion, window+1)
	_, client, err := spec(smr.ClientIDBase).Client(xpaxos.ClientConfig{
		RequestTimeout: 5 * time.Second,
		Window:         window,
		OnCommit:       func(op, rep []byte, lat time.Duration) { done <- completion{lat} },
	})
	if err != nil {
		panic(err)
	}
	peers[smr.ClientIDBase] = client.Addr()
	hosts = append(hosts, client)
	for _, h := range hosts {
		h.Start()
	}

	op := kv.PutOp("/bench", make([]byte, 512))
	lats := make([]time.Duration, 0, ops)
	start := time.Now()
	inflight, issued, completed := 0, 0, 0
	for completed < ops {
		for inflight < window && issued < ops {
			client.Submit(smr.Invoke{Op: op})
			inflight++
			issued++
		}
		c := <-done
		lats = append(lats, c.lat)
		inflight--
		completed++
	}
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		return lats[int(p*float64(len(lats)-1))].Round(10 * time.Microsecond)
	}
	return loopbackResult{
		opsPerSec: float64(ops) / elapsed.Seconds(),
		p50:       pct(0.50),
		p99:       pct(0.99),
	}
}
