package transport

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
)

// Channel security. Every connection between nodes can run mutual TLS
// 1.3: each node presents a certificate binding its NodeID (as a DNS
// SAN, see PeerName) to an Ed25519 key, issued by a cluster CA. The
// dialer pins the expected peer identity via ServerName, the listener
// requires and verifies a client certificate, and the read loop
// rejects frames whose claimed sender differs from the authenticated
// identity — so a replica cannot impersonate another replica or a
// client at the transport layer, closing the spoofing hole the
// plaintext transport leaves open.
//
// Certificates come from two provisioning paths:
//
//   - AutoTLS derives the CA and every node certificate
//     deterministically from the Ed25519 identity keys the crypto
//     suite already holds. A cluster sharing a -seed gets working
//     mutual TLS with zero files — the same trust model as the seeded
//     signing keys (the seed is the cluster secret). This is the
//     dev/bench path.
//   - LoadTLS reads PEM cert/key/CA files provisioned externally
//     (WriteCertFiles emits a compatible set). This is the deployment
//     path: keys never need to appear on more than their own machine.

// peerNamePrefix prefixes the DNS SAN that carries a node's identity.
const peerNamePrefix = "xft-node-"

// PeerName returns the TLS identity name embedded in node id's
// certificate, e.g. "xft-node-3". The dialer sets it as ServerName so
// a certificate for one node never authenticates another.
func PeerName(id smr.NodeID) string {
	return peerNamePrefix + strconv.Itoa(int(id))
}

// peerIDFromCert extracts the NodeID bound by cert's identity SAN. A
// certificate must carry exactly one non-negative identity: a
// negative id would collide with the read loop's plaintext sentinel
// (disabling the sender check), and multiple identity SANs would make
// one certificate speak for several nodes — both rejected, so only
// the deterministic single-identity shape AutoTLS/WriteCertFiles
// emits is authenticated (an external CA must match it).
func peerIDFromCert(cert *x509.Certificate) (smr.NodeID, bool) {
	id, found := smr.NodeID(0), false
	for _, name := range cert.DNSNames {
		rest, ok := strings.CutPrefix(name, peerNamePrefix)
		if !ok {
			continue
		}
		v, err := strconv.Atoi(rest)
		if err != nil || v < 0 {
			return 0, false
		}
		if found {
			return 0, false // multi-identity certificate
		}
		id, found = smr.NodeID(v), true
	}
	return id, found
}

// TLS is a node's channel-security material: its own certificate and
// the CA pool it trusts for peers. A nil *TLS means plaintext.
type TLS struct {
	cert tls.Certificate
	pool *x509.CertPool
}

// Certificate validity. Fixed timestamps keep AutoTLS deterministic:
// the same seed yields byte-identical certificates on every node, so
// no cert distribution step is needed.
var (
	certNotBefore = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	certNotAfter  = time.Date(2120, 1, 1, 0, 0, 0, 0, time.UTC)
)

// caKeyFromSuite derives the cluster CA key from the suite's node-0
// identity key. Any holder of the seed can compute it — exactly the
// trust model of the seeded suite itself.
func caKeyFromSuite(suite *crypto.Ed25519Suite) (ed25519.PrivateKey, error) {
	base := suite.PrivateKey(0)
	if base == nil {
		return nil, fmt.Errorf("transport: suite has no key for node 0")
	}
	seed := sha256.Sum256(append([]byte("xft-tls-ca-v1"), base.Seed()...))
	return ed25519.NewKeyFromSeed(seed[:]), nil
}

func caTemplate() *x509.Certificate {
	return &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "xft-cluster-ca"},
		NotBefore:             certNotBefore,
		NotAfter:              certNotAfter,
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
}

func nodeTemplate(id smr.NodeID) *x509.Certificate {
	return &x509.Certificate{
		SerialNumber: big.NewInt(int64(id) + 2),
		Subject:      pkix.Name{CommonName: PeerName(id)},
		DNSNames:     []string{PeerName(id)},
		NotBefore:    certNotBefore,
		NotAfter:     certNotAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}
}

// clusterCA builds the deterministic CA certificate for the suite.
func clusterCA(suite *crypto.Ed25519Suite) (caDER []byte, caKey ed25519.PrivateKey, err error) {
	caKey, err = caKeyFromSuite(suite)
	if err != nil {
		return nil, nil, err
	}
	tmpl := caTemplate()
	caDER, err = x509.CreateCertificate(rand.Reader, tmpl, tmpl, caKey.Public(), caKey)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: create CA cert: %w", err)
	}
	return caDER, caKey, nil
}

// issueNodeCert signs a certificate for id's suite identity key.
func issueNodeCert(caDER []byte, caKey ed25519.PrivateKey, suite *crypto.Ed25519Suite, id smr.NodeID) ([]byte, ed25519.PrivateKey, error) {
	priv := suite.PrivateKey(crypto.NodeID(id))
	if priv == nil {
		return nil, nil, fmt.Errorf("transport: suite has no key for node %d", id)
	}
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		return nil, nil, err
	}
	der, err := x509.CreateCertificate(rand.Reader, nodeTemplate(id), caCert, priv.Public(), caKey)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: create cert for node %d: %w", id, err)
	}
	return der, priv, nil
}

// AutoTLS builds mutual-TLS material for node id from the suite's
// deterministic Ed25519 identity keys: a cluster CA derived from the
// seed and a node certificate signed by it. Every node of a cluster
// sharing the seed derives the same CA, so the certificates verify
// cross-node without any file exchange.
func AutoTLS(suite *crypto.Ed25519Suite, id smr.NodeID) (*TLS, error) {
	caDER, caKey, err := clusterCA(suite)
	if err != nil {
		return nil, err
	}
	der, priv, err := issueNodeCert(caDER, caKey, suite, id)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		return nil, err
	}
	pool.AddCert(caCert)
	return &TLS{
		cert: tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv},
		pool: pool,
	}, nil
}

// LoadTLS reads a node's certificate, key and CA bundle from PEM
// files (the deployment provisioning path; WriteCertFiles emits a
// compatible set).
func LoadTLS(certFile, keyFile, caFile string) (*TLS, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("transport: load key pair: %w", err)
	}
	caPEM, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("transport: read CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(caPEM) {
		return nil, fmt.Errorf("transport: no certificates in %s", caFile)
	}
	return &TLS{cert: cert, pool: pool}, nil
}

// WriteCertFiles emits the AutoTLS material for the given ids as PEM
// files under dir: ca.pem, and node-<id>.pem / node-<id>-key.pem per
// node. It backs the cmd-level gen-certs helper, giving deployments a
// starting set they can re-issue from real keys later.
func WriteCertFiles(suite *crypto.Ed25519Suite, ids []smr.NodeID, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	caDER, caKey, err := clusterCA(suite)
	if err != nil {
		return err
	}
	caPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: caDER})
	if err := os.WriteFile(filepath.Join(dir, "ca.pem"), caPEM, 0o644); err != nil {
		return err
	}
	for _, id := range ids {
		der, priv, err := issueNodeCert(caDER, caKey, suite, id)
		if err != nil {
			return err
		}
		certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
		keyDER, err := x509.MarshalPKCS8PrivateKey(priv)
		if err != nil {
			return err
		}
		keyPEM := pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: keyDER})
		base := filepath.Join(dir, fmt.Sprintf("node-%d", id))
		if err := os.WriteFile(base+".pem", certPEM, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+"-key.pem", keyPEM, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// serverConfig is the listener-side TLS configuration: present our
// certificate, require and verify a peer certificate against the
// cluster CA.
func (t *TLS) serverConfig() *tls.Config {
	return &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{t.cert},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    t.pool,
	}
}

// clientConfig is the dialer-side TLS configuration for connecting to
// peer: the ServerName pins the peer's identity, so a valid cluster
// certificate for any *other* node does not authenticate it.
func (t *TLS) clientConfig(peer smr.NodeID) *tls.Config {
	return &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{t.cert},
		RootCAs:      t.pool,
		ServerName:   PeerName(peer),
	}
}
