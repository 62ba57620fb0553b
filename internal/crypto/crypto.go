// Package crypto provides the cryptographic substrate used by all
// replication protocols in this repository: digital signatures, message
// authentication codes (MACs) and digests, behind a pluggable Suite
// interface.
//
// Two suites are provided:
//
//   - Ed25519Suite: real public-key cryptography from the Go standard
//     library (crypto/ed25519, crypto/hmac, crypto/sha256), with every
//     key derived from a seed the first time it is used. Used by the
//     TCP deployment and correctness tests that must exercise genuine
//     signature verification failures.
//
//   - SimSuite: a fast, deterministic suite for large discrete-event
//     simulations. Signatures are keyed SHA-256 digests over a per-node
//     secret; they verify only against the signer's identity, so honest
//     protocol code behaves identically, while fault-injection code can
//     still fabricate *invalid* signatures. SimSuite is orders of
//     magnitude faster than Ed25519 and keeps multi-million-message
//     experiments cheap.
//
// Every suite is wrapped in a Meter that counts operations and charges
// a CostModel, so the network simulator can account for CPU time spent
// on cryptography (Section 5.3 / Figure 8 of the XFT paper). The
// default cost model uses RSA-1024 + HMAC-SHA1 era constants to match
// the paper's experimental setup.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/xft-consensus/xft/internal/crypto/ed25519x"
)

// NodeID identifies a machine (replica or client) in the key universe.
// It mirrors smr.NodeID; defined here too so the package stands alone.
type NodeID int

// DigestSize is the size of message digests in bytes (SHA-256).
const DigestSize = 32

// Digest is a fixed-size message digest.
type Digest [DigestSize]byte

// String renders the first 8 bytes of the digest in hex.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// Signature is a digital signature produced by a Suite.
type Signature []byte

// MAC is a message authentication code produced by a Suite.
type MAC []byte

// Hash returns the SHA-256 digest of data. All suites share this
// digest function, so digests computed by different suites agree.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// HashParts digests the concatenation of several byte slices. Up to
// 256 bytes the concatenation is built on the stack, so the call does
// not allocate; longer inputs grow onto the heap.
func HashParts(parts ...[]byte) Digest {
	var stack [256]byte
	buf := stack[:0]
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return sha256.Sum256(buf)
}

// Suite is the cryptographic interface protocols program against.
//
// Sign/Verify model per-node public-key signatures (the paper's
// RSA-1024); MAC/VerifyMAC model pairwise symmetric authenticators
// (the paper's HMAC-SHA1). A Suite instance answers for every node of
// the deployment, deriving each key from its seed when first needed;
// node identity is passed explicitly so a single Suite can serve a
// simulated cluster.
type Suite interface {
	// Sign signs data with the private key of node id.
	Sign(id NodeID, data []byte) Signature
	// Verify reports whether sig is a valid signature over data by
	// node id.
	Verify(id NodeID, data []byte, sig Signature) bool
	// MAC authenticates data on the channel from -> to.
	MAC(from, to NodeID, data []byte) MAC
	// VerifyMAC reports whether mac authenticates data on from -> to.
	VerifyMAC(from, to NodeID, data []byte, mac MAC) bool
	// SignatureSize is the wire size of a signature in bytes.
	SignatureSize() int
	// MACSize is the wire size of a MAC in bytes.
	MACSize() int
}

// ---------------------------------------------------------------------------
// Ed25519 suite
// ---------------------------------------------------------------------------

// Ed25519Suite implements Suite with real Ed25519 signatures and
// HMAC-SHA256 MACs. Every key of ids 0..n-1 is derived from the seed
// the first time it is used, so a process pays only for the ids it
// meets, and anyone holding the seed can derive all of them.
type Ed25519Suite struct {
	n    int
	seed int64
	// keys maps NodeID -> *nodeKey for the ids used so far.
	keys sync.Map
}

// nodeKey is one id's private key and its decompressed public point,
// which every verification of the id's signatures reuses.
type nodeKey struct {
	priv ed25519.PrivateKey
	pub  *ed25519x.PublicKey
}

// NewEd25519Suite returns a suite for node ids 0..n-1 (replicas and
// clients share one id space) whose keys derive from seed.
func NewEd25519Suite(n int, seed int64) *Ed25519Suite {
	return &Ed25519Suite{n: n, seed: seed}
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func (s *Ed25519Suite) has(id NodeID) bool { return id >= 0 && int(id) < s.n }

// key returns id's keys, deriving them on first use, or nil if id is
// outside 0..n-1.
func (s *Ed25519Suite) key(id NodeID) *nodeKey {
	if !s.has(id) {
		return nil
	}
	if k, ok := s.keys.Load(id); ok {
		return k.(*nodeKey)
	}
	var keySeed [ed25519.SeedSize]byte
	binary.LittleEndian.PutUint64(keySeed[0:8], uint64(s.seed))
	binary.LittleEndian.PutUint64(keySeed[8:16], uint64(id)+1)
	priv := ed25519.NewKeyFromSeed(keySeed[:])
	pub, err := ed25519x.ParsePublicKey(priv.Public().(ed25519.PublicKey))
	if err != nil {
		panic(fmt.Sprintf("crypto: public key of node %d does not decode: %v", id, err))
	}
	k, _ := s.keys.LoadOrStore(id, &nodeKey{priv: priv, pub: pub})
	return k.(*nodeKey)
}

// Sign implements Suite.
func (s *Ed25519Suite) Sign(id NodeID, data []byte) Signature {
	k := s.key(id)
	if k == nil {
		panic(fmt.Sprintf("crypto: no private key for node %d", id))
	}
	return Signature(ed25519.Sign(k.priv, data))
}

// Verify implements Suite. Verification is cofactored (see
// internal/crypto/ed25519x), matching BatchVerify exactly: whether a
// signature is checked alone, in a batch, or by bisection of a failed
// batch, the acceptance predicate is identical. A mixed-predicate
// suite (cofactorless singles, cofactored batches) would let an
// adversarial signature verify on one protocol path and fail on
// another, which in a replicated protocol means replicas disagreeing
// about message validity — a view-change-churn vector. For honestly
// generated signatures the verdict coincides with crypto/ed25519.
func (s *Ed25519Suite) Verify(id NodeID, data []byte, sig Signature) bool {
	k := s.key(id)
	return k != nil && ed25519x.Verify(k.pub, data, sig)
}

// MAC implements Suite. The channel key is the digest of the seed and
// the unordered pair, computed per call.
func (s *Ed25519Suite) MAC(from, to NodeID, data []byte) MAC {
	if !s.has(from) || !s.has(to) {
		panic(fmt.Sprintf("crypto: no MAC key for %d->%d", from, to))
	}
	key := HashParts([]byte("mac-key"), u64(uint64(s.seed)), u64(uint64(min(from, to))), u64(uint64(max(from, to))))
	h := hmac.New(sha256.New, key[:])
	h.Write(data)
	return h.Sum(nil)
}

// VerifyMAC implements Suite.
func (s *Ed25519Suite) VerifyMAC(from, to NodeID, data []byte, mac MAC) bool {
	return s.has(from) && s.has(to) && hmac.Equal(s.MAC(from, to, data), mac)
}

// SignatureSize implements Suite.
func (s *Ed25519Suite) SignatureSize() int { return ed25519.SignatureSize }

// MACSize implements Suite.
func (s *Ed25519Suite) MACSize() int { return sha256.Size }

// PublicKey returns node id's raw Ed25519 public key (nil if id has
// none). Exposed for benchmarks and external verifiers that need the
// standard-library representation.
func (s *Ed25519Suite) PublicKey(id NodeID) ed25519.PublicKey {
	if priv := s.PrivateKey(id); priv != nil {
		return priv.Public().(ed25519.PublicKey)
	}
	return nil
}

// PrivateKey returns node id's Ed25519 private key (nil if id has
// none). The suite's keys are seed-derived deployment material; the
// TCP transport reuses them as TLS identity keys, so the channel
// certificates and the protocol signatures attest the same identity
// (see internal/transport's AutoTLS).
func (s *Ed25519Suite) PrivateKey(id NodeID) ed25519.PrivateKey {
	if k := s.key(id); k != nil {
		return k.priv
	}
	return nil
}

// SupportsBatchVerify implements BatchSuite.
func (s *Ed25519Suite) SupportsBatchVerify() bool { return true }

// BatchVerify implements BatchSuite: all jobs are checked in one
// multi-scalar pass (see internal/crypto/ed25519x). Verification is
// cofactored, so the verdict is independent of how callers group
// signatures into batches; for honestly generated signatures it always
// agrees with Verify.
func (s *Ed25519Suite) BatchVerify(jobs []VerifyJob) bool {
	if len(jobs) == 0 {
		return true
	}
	pubs := make([]*ed25519x.PublicKey, len(jobs))
	msgs := make([][]byte, len(jobs))
	sigs := make([][]byte, len(jobs))
	for i := range jobs {
		k := s.key(jobs[i].ID)
		if k == nil {
			return false
		}
		pubs[i] = k.pub
		msgs[i] = jobs[i].Data
		sigs[i] = jobs[i].Sig
	}
	return ed25519x.VerifyBatch(pubs, msgs, sigs)
}

var _ BatchSuite = (*Ed25519Suite)(nil)

// ---------------------------------------------------------------------------
// Simulation suite
// ---------------------------------------------------------------------------

// SimSuite is a cheap deterministic suite for simulations. A
// "signature" is SHA-256(node-secret || data); verification recomputes
// it. Honest code cannot distinguish it from real crypto; adversarial
// test code fabricates invalid signatures by flipping bytes.
//
// Tags are padded (signatures) or truncated (MACs) to the *modeled*
// wire sizes — 128 bytes for the paper's RSA-1024 signatures, 20 bytes
// for HMAC-SHA1 — so that bandwidth accounting in the simulator sees
// the same byte counts the paper's deployment did.
type SimSuite struct {
	seed             uint64
	sigSize, macSize int
}

// NewSimSuite returns a simulation suite. Wire sizes model RSA-1024
// signatures (128 bytes) and HMAC-SHA1 MACs (20 bytes) to match the
// paper's bandwidth footprint.
func NewSimSuite(seed int64) *SimSuite {
	return &SimSuite{seed: uint64(seed), sigSize: 128, macSize: 20}
}

func (s *SimSuite) nodeSecret(id NodeID) Digest {
	return HashParts([]byte("sim-node-secret"), u64(s.seed), u64(uint64(id)))
}

// Sign implements Suite. The returned tag is the keyed digest padded
// to the modeled signature size.
func (s *SimSuite) Sign(id NodeID, data []byte) Signature {
	sec := s.nodeSecret(id)
	d := HashParts(sec[:], data)
	sig := make(Signature, s.sigSize)
	copy(sig, d[:])
	return sig
}

// Verify implements Suite.
func (s *SimSuite) Verify(id NodeID, data []byte, sig Signature) bool {
	if len(sig) != s.sigSize {
		return false
	}
	sec := s.nodeSecret(id)
	d := HashParts(sec[:], data)
	return hmac.Equal(sig[:DigestSize], d[:])
}

// MAC implements Suite. The tag is truncated to the modeled MAC size.
func (s *SimSuite) MAC(from, to NodeID, data []byte) MAC {
	key := HashParts([]byte("sim-mac"), u64(s.seed), u64(uint64(min(int(from), int(to)))), u64(uint64(max(int(from), int(to)))))
	d := HashParts(key[:], data)
	return MAC(d[:s.macSize])
}

// VerifyMAC implements Suite.
func (s *SimSuite) VerifyMAC(from, to NodeID, data []byte, mac MAC) bool {
	if len(mac) != s.macSize {
		return false
	}
	want := s.MAC(from, to, data)
	return hmac.Equal(mac, want)
}

// SignatureSize implements Suite.
func (s *SimSuite) SignatureSize() int { return s.sigSize }

// MACSize implements Suite.
func (s *SimSuite) MACSize() int { return s.macSize }

// SupportsBatchVerify implements BatchSuite. SimSuite has no batch
// algebra to amortize — each signature is recomputed individually —
// but advertising batch support routes simulated verifications through
// the same batch path the live Ed25519 suite takes, so the simulator's
// Meter counts them as batched and cost models with a batch discount
// (CostModelModern) price them accordingly.
func (s *SimSuite) SupportsBatchVerify() bool { return true }

// BatchVerify implements BatchSuite.
func (s *SimSuite) BatchVerify(jobs []VerifyJob) bool {
	for i := range jobs {
		if !s.Verify(jobs[i].ID, jobs[i].Data, jobs[i].Sig) {
			return false
		}
	}
	return true
}

var _ BatchSuite = (*SimSuite)(nil)
