// Command xft-server runs one XPaxos replica over TCP, replicating the
// ZooKeeper-like coordination service.
//
// A three-replica local cluster (t = 1):
//
//	xft-server -id 0 -listen :7000 -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002 &
//	xft-server -id 1 -listen :7001 -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002 &
//	xft-server -id 2 -listen :7002 -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002 &
//
// Then use xft-client to issue operations. All replicas must share the
// same -seed (it derives the deterministic key material; a production
// deployment would provision real keys instead).
//
// Channel security is on by default: every connection runs mutual TLS
// 1.3 with per-node certificates derived from the same seed (so a
// cluster sharing -seed needs no cert files at all). Pass explicit
// -tls-cert/-tls-key/-tls-ca paths to use provisioned certificates
// (see -gen-certs for a starter set), or -insecure to run plaintext
// for benchmarks on closed testbeds.
//
// Pass -data-dir to make the replica durable: every commit and stable
// checkpoint is appended to a write-ahead log under that directory,
// and a restarted replica replays it before rejoining — it comes back
// with the state it had fsynced instead of an empty store (see the
// "Durability" section of the README for the format and recovery
// semantics).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"github.com/xft-consensus/xft/internal/apps/zk"
	"github.com/xft-consensus/xft/internal/deploy"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

func main() {
	id := flag.Int("id", 0, "replica id (0..n-1)")
	listen := flag.String("listen", ":7000", "listen address")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port for all replicas (and any client reply addresses)")
	t := flag.Int("t", 1, "fault threshold (n = 2t+1)")
	delta := flag.Duration("delta", 500*time.Millisecond, "synchrony bound Δ")
	seed := flag.Int64("seed", 1, "deterministic key seed (must match across the cluster)")
	fd := flag.Bool("fd", true, "enable fault detection")
	intakeCap := flag.Int("intake-cap", 0, "admission queue bound (0 = default 4096)")
	statsEvery := flag.Duration("stats", 0, "log intake/transport stats at this interval (0 = off)")
	insecure := flag.Bool("insecure", false, "run plaintext TCP (no TLS) — for benchmarks on closed testbeds")
	tlsCert := flag.String("tls-cert", "", "PEM certificate file (default: derive from -seed)")
	tlsKey := flag.String("tls-key", "", "PEM private key file")
	tlsCA := flag.String("tls-ca", "", "PEM CA bundle file")
	dataDir := flag.String("data-dir", "", "directory for the durable write-ahead log (empty = in-memory only)")
	probeInterval := flag.Duration("probe-interval", deploy.DefaultProbeInterval, "keepalive probe interval (0 = no health probing)")
	probeTimeout := flag.Duration("probe-timeout", 0, "silence after which a peer is reported down (0 = 3x interval)")
	genCerts := flag.String("gen-certs", "", "write seed-derived TLS certs for the cluster into this directory and exit")
	genClients := flag.Int("gen-clients", 8, "with -gen-certs: how many client identities to issue (ids 1000..)")
	flag.Parse()

	n := 2**t + 1
	keys := deploy.Keys(*t, *seed)

	if *genCerts != "" {
		ids := make([]smr.NodeID, 0, n+*genClients)
		for i := 0; i < n; i++ {
			ids = append(ids, smr.NodeID(i))
		}
		for i := 0; i < *genClients; i++ {
			ids = append(ids, smr.ClientIDBase+smr.NodeID(i))
		}
		if err := transport.WriteCertFiles(keys, ids, *genCerts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote ca.pem and %d node certificates to %s\n", len(ids), *genCerts)
		return
	}

	peers, err := transport.ParsePeers(*peersFlag)
	if err != nil {
		log.Fatal(err)
	}
	spec := deploy.Spec{
		ID: smr.NodeID(*id), T: *t, Keys: keys,
		Listen: *listen, Peers: peers,
		Insecure: *insecure, TLSCert: *tlsCert, TLSKey: *tlsKey, TLSCA: *tlsCA,
		ProbeInterval: *probeInterval, ProbeTimeout: *probeTimeout,
		DataDir: *dataDir,
	}
	replica, node, err := spec.Replica(xpaxos.Config{
		Delta:          *delta,
		EnableFD:       *fd,
		IntakeQueueCap: *intakeCap,
		OnViewChange: func(v smr.View, at time.Duration) {
			log.Printf("installed view %d (group %v)", v, xpaxos.SyncGroup(n, *t, v))
		},
		OnFaultDetected: func(culprit smr.NodeID, kind string, sn smr.SeqNum) {
			log.Printf("FAULT DETECTED: replica %d, kind=%s, sn=%d — replace the machine", culprit, kind, sn)
		},
	}, zk.NewStore())
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		// The replica replayed the log before its transport runs.
		log.Printf("recovered from WAL: sn=%d view=%d (data-dir %s)",
			replica.Executed(), replica.View(), *dataDir)
	}
	log.Printf("xft-server: replica %d/%d listening on %s (t=%d, Δ=%v, FD=%v, TLS=%v, probes=%v)",
		*id, n, node.Addr(), *t, *delta, *fd, spec.Secure(), *probeInterval)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := node.Stats()
				if st.Intake != nil {
					log.Printf("intake: queued=%d admitted=%d shed=%d forward-dropped=%d pressure-dropped=%d",
						st.Intake.Queued, st.Intake.Admitted, st.Intake.Shed,
						st.Intake.ForwardDropped, st.Intake.PressureDropped)
				}
				for id, p := range st.Peers {
					if p.Drops > 0 || p.Queued > 0 || !p.Up {
						log.Printf("peer %d: queued=%d dropped=%d up=%v rtt=%v",
							id, p.Queued, p.Drops, p.Up, p.RTT)
					}
				}
			}
		}()
	}

	node.Start()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	if err := node.Stop(); err != nil {
		log.Fatalf("closing the WAL: %v", err)
	}
}
