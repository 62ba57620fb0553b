// Command xft-client issues operations against an xft-server cluster.
//
//	xft-client -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002 \
//	           -listen :7100 create /config "v1"
//
// The replicas deliver replies over connections they dial themselves,
// so each xft-server's -peers list must also name this client's id and
// -listen address (e.g. append 1000=localhost:7100); a server cannot
// route replies to an address it was never told.
//
//	xft-client ... get /config
//	xft-client ... set /config "v2"
//	xft-client ... ls /
//	xft-client ... bench 100              # 100 sequential 1kB writes
//	xft-client ... -window 16 bench 5000  # open-loop: 16 outstanding
//
// With -window above 1 the bench command runs open-loop: up to that
// many requests stay outstanding at once from this single client
// identity, which saturates the server pipeline (and exercises its
// admission queue) without spawning one process per connection. The
// window is at most 64, the replicas' per-client session window of
// timestamps. Its last line reports the longest stretch without a
// commit — with a replica killed mid-load, the service gap.
//
// Channel security mirrors xft-server: mutual TLS derived from -seed
// by default, -tls-cert/-tls-key/-tls-ca for provisioned material, or
// -insecure for plaintext (must match the servers' choice). Like a
// server, the client probes the replicas every second, so it turns to
// the next viable view as soon as a replica of its group goes down.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"sync/atomic"
	"time"

	"github.com/xft-consensus/xft/internal/apps/zk"
	"github.com/xft-consensus/xft/internal/deploy"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

func main() {
	listen := flag.String("listen", ":7100", "client listen address (replicas reply here)")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port for all replicas")
	clientID := flag.Int("client-id", 1000, "client node id (≥1000, unique per client)")
	t := flag.Int("t", 1, "cluster fault threshold")
	seed := flag.Int64("seed", 1, "key seed (must match the servers)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-operation timeout")
	window := flag.Int("window", 1, "max outstanding requests (bench only; >1 = open loop, max 64)")
	insecure := flag.Bool("insecure", false, "run plaintext TCP (no TLS) — must match the servers")
	tlsCert := flag.String("tls-cert", "", "PEM certificate file (default: derive from -seed)")
	tlsKey := flag.String("tls-key", "", "PEM private key file")
	tlsCA := flag.String("tls-ca", "", "PEM CA bundle file")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: xft-client [flags] <create|get|set|delete|ls|bench> [args]")
	}

	peers, err := transport.ParsePeers(*peersFlag)
	if err != nil {
		log.Fatal(err)
	}
	type completion struct {
		rep []byte
		lat time.Duration
		at  time.Time
	}
	done := make(chan completion, *window+1)
	// refill, when set, runs on the client's event loop after every
	// commit: the open-loop bench issues from there, where it may ask
	// the client whether its window has room (CanInvoke).
	var refill atomic.Pointer[func()]
	spec := deploy.Spec{
		ID: smr.NodeID(*clientID), T: *t, Keys: deploy.Keys(*t, *seed),
		Listen: *listen, Peers: peers,
		Insecure: *insecure, TLSCert: *tlsCert, TLSKey: *tlsKey, TLSCA: *tlsCA,
		ProbeInterval: deploy.DefaultProbeInterval,
	}
	cl, node, err := spec.Client(xpaxos.ClientConfig{
		RequestTimeout: 2 * time.Second,
		TSBase:         uint64(time.Now().UnixNano()),
		Window:         *window,
		OnCommit: func(op, rep []byte, lat time.Duration) {
			done <- completion{rep, lat, time.Now()}
			if f := refill.Load(); f != nil {
				(*f)()
			}
		},
	})
	if err != nil {
		log.Fatal(err) // e.g. -window above the replicas' session window (64)
	}
	if *window < 1 {
		*window = cl.Window() // report the effective window
	}
	node.Start()
	defer node.Stop()

	invoke := func(op []byte) []byte {
		node.Submit(smr.Invoke{Op: op})
		select {
		case c := <-done:
			return c.rep
		case <-time.After(*timeout):
			log.Fatal("operation timed out")
			return nil
		}
	}

	switch args[0] {
	case "create":
		rep := invoke(zk.CreateOp(args[1], []byte(argOr(args, 2, "")), zk.ModePersistent))
		fmt.Printf("status=%d\n", zk.ReplyStatus(rep))
	case "get":
		rep := invoke(zk.GetOp(args[1]))
		if data, ver, err := zk.ReplyData(rep); err == nil {
			fmt.Printf("%s (version %d)\n", data, ver)
		} else {
			fmt.Printf("status=%d\n", zk.ReplyStatus(rep))
		}
	case "set":
		rep := invoke(zk.SetOp(args[1], []byte(argOr(args, 2, "")), -1))
		fmt.Printf("status=%d\n", zk.ReplyStatus(rep))
	case "delete":
		rep := invoke(zk.DeleteOp(args[1], -1))
		fmt.Printf("status=%d\n", zk.ReplyStatus(rep))
	case "ls":
		rep := invoke(zk.ChildrenOp(args[1]))
		if kids, err := zk.ReplyChildren(rep); err == nil {
			for _, k := range kids {
				fmt.Println(k)
			}
		} else {
			fmt.Printf("status=%d\n", zk.ReplyStatus(rep))
		}
	case "bench":
		var count int
		fmt.Sscanf(argOr(args, 1, "100"), "%d", &count)
		invoke(zk.CreateOp("/bench", nil, zk.ModePersistent))
		payload := make([]byte, 1024)
		op := zk.SetOp("/bench", payload, -1)
		lats := make([]time.Duration, 0, count)
		start := time.Now()
		// The longest stretch without a commit: under a fault, the
		// service gap this client saw.
		last, gap := start, time.Duration(0)
		collect := func() {
			select {
			case c := <-done:
				lats = append(lats, c.lat)
				if d := c.at.Sub(last); d > gap {
					gap = d
				}
				last = c.at
			case <-time.After(*timeout):
				log.Fatalf("stalled: %d/%d completed", len(lats), count)
			}
		}
		if *window > 1 && count > 0 {
			// Open loop: every commit tops the window up, from the event
			// loop. The window is the client's to judge — a count of
			// outstanding requests would let timestamps outrun a stuck one.
			issued := 1 // the request submitted below; loop-owned after that
			fill := func() {
				for issued < count && cl.CanInvoke() {
					cl.Invoke(op)
					issued++
				}
			}
			refill.Store(&fill)
			node.Submit(smr.Invoke{Op: op})
			for len(lats) < count {
				collect()
			}
		} else {
			for i := 0; i < count; i++ {
				node.Submit(smr.Invoke{Op: op})
				collect()
			}
		}
		el := time.Since(start)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) time.Duration {
			if len(lats) == 0 {
				return 0
			}
			i := int(p * float64(len(lats)-1))
			return lats[i]
		}
		fmt.Printf("%d writes in %v, window %d (%.1f ops/s, p50 %v, p99 %v)\n",
			count, el.Round(time.Millisecond), *window, float64(count)/el.Seconds(),
			pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
		fmt.Printf("longest gap between commits: %d ms\n", gap.Milliseconds())
		for id, st := range node.Stats().Peers {
			fmt.Printf("peer %d: queued=%d dropped=%d\n", id, st.Queued, st.Drops)
		}
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

func argOr(args []string, i int, def string) string {
	if i < len(args) {
		return args[i]
	}
	return def
}
