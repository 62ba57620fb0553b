// Package deploy assembles live XPaxos nodes. A Spec holds what a
// deployment decides for one node — its id, the fault threshold, the
// keys, where it listens and whom it talks to, how its channels are
// secured, how it probes its peers and where it keeps its log — and
// Spec.Replica and Spec.Client turn a protocol configuration into a
// running node on a transport.Node. Every live process builds its nodes
// here (cmd/xft-server, cmd/xft-client, the public xft.Cluster and the
// TLS experiment), so what a node is made of is written down once.
package deploy

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
	"github.com/xft-consensus/xft/internal/wal"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// CheckpointInterval is every live replica's CHK: a checkpoint every
// 256 batches.
const CheckpointInterval = 256

// DefaultProbeInterval is the keepalive probe interval of a node that
// is not told otherwise; the silence timeout defaults to three of it.
const DefaultProbeInterval = time.Second

// Keys returns a cluster's key material, derived from its shared seed
// on demand: an Ed25519 identity for every node id below 2t+1+1024,
// which covers the 2t+1 replicas and the client ids from
// smr.ClientIDBase up to that bound, each computed the first time the
// node uses it. Every node of the cluster must use the same seed; it is
// the cluster secret.
func Keys(t int, seed int64) *crypto.Ed25519Suite {
	return crypto.NewEd25519Suite(2*t+1+1024, seed)
}

// Spec is one node's deployment settings.
type Spec struct {
	ID   smr.NodeID
	T    int
	Keys *crypto.Ed25519Suite
	// Listen is the address the node binds ("127.0.0.1:0" picks a port;
	// Host.Addr reports it).
	Listen string
	// Peers maps every node this one sends to onto its address. The
	// node reads it and never writes it, so one map may be shared by a
	// whole cluster (see transport.Node.AddPeer).
	Peers map[smr.NodeID]string
	// Insecure runs plaintext TCP. Otherwise the node runs mutual TLS:
	// from the PEM files TLSCert, TLSKey and TLSCA when they are given,
	// which win over Insecure, else from certificates derived from Keys.
	Insecure               bool
	TLSCert, TLSKey, TLSCA string
	// ProbeInterval is the keepalive probe interval (zero: no probing);
	// ProbeTimeout the silence after which a peer is reported down
	// (zero: three intervals).
	ProbeInterval, ProbeTimeout time.Duration
	// DataDir, when set, holds a replica's write-ahead log (DataDir/wal).
	DataDir string
}

// Secure reports whether the node's connections run TLS.
func (s Spec) Secure() bool {
	return !s.Insecure || s.TLSCert != "" || s.TLSKey != "" || s.TLSCA != ""
}

// tls resolves the channel-security settings: explicit PEM files win,
// Insecure selects plaintext (nil), and the default derives the
// cluster's mutual-TLS material from the keys.
func (s Spec) tls() (*transport.TLS, error) {
	switch {
	case s.TLSCert != "" || s.TLSKey != "" || s.TLSCA != "":
		if s.TLSCert == "" || s.TLSKey == "" || s.TLSCA == "" {
			return nil, fmt.Errorf("deploy: -tls-cert, -tls-key and -tls-ca must be given together")
		}
		return transport.LoadTLS(s.TLSCert, s.TLSKey, s.TLSCA)
	case s.Insecure:
		return nil, nil
	default:
		return transport.AutoTLS(s.Keys, s.ID)
	}
}

// Replica builds replica s.ID from cfg and app. It fills cfg's N, T,
// Suite (the keys, metered), CheckpointInterval and, when DataDir is
// set, WAL; the replica has replayed that log by the time Replica
// returns, before its transport runs.
func (s Spec) Replica(cfg xpaxos.Config, app smr.Application) (*xpaxos.Replica, *Host, error) {
	cfg.N, cfg.T = 2*s.T+1, s.T
	cfg.Suite = crypto.NewMeter(s.Keys)
	cfg.CheckpointInterval = CheckpointInterval
	var log *wal.Log
	if s.DataDir != "" {
		var err error
		if log, err = wal.Open(filepath.Join(s.DataDir, "wal"), wal.Options{}); err != nil {
			return nil, nil, err
		}
		cfg.WAL = log
	}
	r := xpaxos.NewReplica(s.ID, cfg, app)
	h, err := s.host(r, log)
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, nil, err
	}
	return r, h, nil
}

// Client builds client s.ID from cfg, filling its N, T and Suite.
func (s Spec) Client(cfg xpaxos.ClientConfig) (*xpaxos.Client, *Host, error) {
	cfg.N, cfg.T = 2*s.T+1, s.T
	cfg.Suite = crypto.NewMeter(s.Keys)
	c, err := xpaxos.NewClient(s.ID, cfg)
	if err != nil {
		return nil, nil, err
	}
	h, err := s.host(c, nil)
	if err != nil {
		return nil, nil, err
	}
	return c, h, nil
}

func (s Spec) host(nd smr.Node, log *wal.Log) (*Host, error) {
	opts := []transport.Option{transport.WithKeepalive(s.ProbeInterval, s.ProbeTimeout)}
	sec, err := s.tls()
	if err != nil {
		return nil, err
	}
	if sec != nil {
		opts = append(opts, transport.WithTLS(sec))
	}
	node, err := transport.NewNode(s.ID, nd, s.Listen, s.Peers, opts...)
	if err != nil {
		return nil, err
	}
	return &Host{Node: node, log: log, done: make(chan struct{})}, nil
}

// Host is one node on its transport. The embedded transport.Node gives
// Addr, Submit, Stats and AddPeer; Start runs the node and Stop ends it.
type Host struct {
	*transport.Node
	log   *wal.Log // nil without a DataDir
	start sync.Once
	done  chan struct{} // closed once Node.Run has returned, or at a Stop that came first
}

// Start runs the node on its own goroutine. Only the first call counts.
func (h *Host) Start() {
	h.start.Do(func() {
		go func() {
			h.Node.Run()
			close(h.done)
		}()
	})
}

// Stop ends the node and returns once its Run has returned — so every
// goroutine of the node, deferred work included, has exited and the
// hosted protocol node may be read — and its log is closed, with the
// error of that final sync. It is idempotent, and a host never started
// is not started afterwards.
func (h *Host) Stop() error {
	h.Node.Stop()
	h.start.Do(func() { close(h.done) })
	<-h.done
	if h.log == nil {
		return nil
	}
	return h.log.Close()
}
