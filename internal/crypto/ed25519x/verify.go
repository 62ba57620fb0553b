package ed25519x

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"errors"
	"sync"
)

// PublicKey is a parsed, decompressed Ed25519 public key. Parsing costs
// a field exponentiation (the square root in decompression), so
// long-lived verifiers cache PublicKeys per signer instead of re-paying
// it on every signature — in a replication protocol the key universe is
// fixed at deployment time, which makes this cache total.
type PublicKey struct {
	bytes  [32]byte
	negA   point // -A, the form the verification equation consumes
	tables struct {
		once sync.Once
		naf  nafTable // for -A, built lazily on first verify
	}
}

// ParsePublicKey decompresses a 32-byte Ed25519 public key.
func ParsePublicKey(pub ed25519.PublicKey) (*PublicKey, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, errors.New("ed25519x: bad public key length")
	}
	var a point
	if err := a.setBytes(pub); err != nil {
		return nil, err
	}
	k := &PublicKey{}
	copy(k.bytes[:], pub)
	k.negA.neg(&a)
	return k, nil
}

// negATable returns the cached w-NAF table for -A.
func (k *PublicKey) negATable() *nafTable {
	k.tables.once.Do(func() { k.tables.naf.init(&k.negA) })
	return &k.tables.naf
}

// basepointNafTable is the shared w-NAF table for the generator B.
var (
	bpOnce  sync.Once
	bpTable nafTable
)

func basepointNafTable() *nafTable {
	bpOnce.Do(func() { bpTable.init(&basepoint) })
	return &bpTable
}

// sig holds one parsed signature: R decompressed, S range-checked.
type sig struct {
	negR point  // -R
	s    scalar // S < l
	k    scalar // SHA512(R || A || M) mod l
}

// parseSig decodes and range-checks sig bytes and derives the
// challenge scalar for (pub, msg).
func (v *sig) parse(pub *PublicKey, msg, sigBytes []byte) bool {
	if len(sigBytes) != ed25519.SignatureSize {
		return false
	}
	var r point
	if r.setBytes(sigBytes[:32]) != nil {
		return false
	}
	v.negR.neg(&r)
	if !v.s.setCanonical(sigBytes[32:]) {
		return false
	}
	h := sha512.New()
	h.Write(sigBytes[:32])
	h.Write(pub.bytes[:])
	h.Write(msg)
	var digest [64]byte
	v.k.setUniform(h.Sum(digest[:0]))
	return true
}

// Verify checks one signature with the cofactored equation
// [8]([S]B - [k]A - R) == identity. It agrees with VerifyBatch on
// every input (see the package comment for how this can differ from
// crypto/ed25519 on adversarial small-order inputs). Once warm it
// allocates nothing: the table for -R and the terms live on the stack,
// and the parsed signature, with its big.Int words, comes from sigPool.
func Verify(pub *PublicKey, msg, sigBytes []byte) bool {
	s := sigPool.Get().(*sig)
	defer sigPool.Put(s)
	if !s.parse(pub, msg, sigBytes) {
		return false
	}
	var negR nafTable
	negR.init(&s.negR)
	var terms [3]multiScalarTerm
	terms[0].setPrecomputed(&s.s, basepointNafTable())
	terms[1].setPrecomputed(&s.k, pub.negATable())
	terms[2].table = &negR               // a direct store, so negR stays on the stack
	terms[2].naf[0], terms[2].top = 1, 0 // the scalar 1
	var sum, eight point
	return eight.mulByCofactor(varTimeMultiScalarMult(&sum, terms[:])).isIdentity()
}

var sigPool = sync.Pool{New: func() any { return new(sig) }}

// zCoefficientSize is the byte length of the random batching
// coefficients z_i: 128 bits, the standard choice — an invalid
// signature survives the randomized equation with probability 2^-128.
const zCoefficientSize = 16

// VerifyBatch verifies len(sigs) signatures in one multi-scalar pass:
//
//	[8]( [sum z_i s_i]B - sum [z_i]R_i - sum [z_i k_i]A_i ) == identity
//
// with independent random 128-bit z_i, so a batch of b signatures costs
// one shared doubling chain plus per-term additions instead of b full
// double-scalar multiplications. Returns true iff the equation holds;
// a false verdict says at least one signature is invalid, without
// identifying which (callers bisect, see internal/crypto.BatchVerifier).
//
// pubs, msgs and sigs must have equal length. A batch of size 0 is
// vacuously valid; size 1 degenerates to (randomized) single
// verification.
func VerifyBatch(pubs []*PublicKey, msgs [][]byte, sigs [][]byte) bool {
	n := len(sigs)
	if len(pubs) != n || len(msgs) != n {
		return false
	}
	if n == 0 {
		return true
	}
	parsed := make([]sig, n)
	for i := 0; i < n; i++ {
		if pubs[i] == nil || !parsed[i].parse(pubs[i], msgs[i], sigs[i]) {
			return false
		}
	}
	zs := make([]byte, zCoefficientSize*n)
	if _, err := rand.Read(zs); err != nil {
		// No randomness: fall back to one-by-one verification rather
		// than accepting a batch an adversary could have structured.
		for i := 0; i < n; i++ {
			if !Verify(pubs[i], msgs[i], sigs[i]) {
				return false
			}
		}
		return true
	}

	// Terms: [z_i]( -R_i ), [z_i k_i]( -A_i ), and one basepoint term
	// with the aggregated scalar sum z_i s_i. The -R_i tables are built
	// into one allocation.
	terms := make([]multiScalarTerm, 2*n+1)
	negR := make([]nafTable, n)
	var sB, z, zk scalar
	for i := 0; i < n; i++ {
		z.setBytesLE(zs[zCoefficientSize*i : zCoefficientSize*(i+1)])
		sB.mulAdd(&z, &parsed[i].s, &sB)
		zk.mul(&z, &parsed[i].k)
		negR[i].init(&parsed[i].negR)
		terms[2*i].setPrecomputed(&z, &negR[i])
		terms[2*i+1].setPrecomputed(&zk, pubs[i].negATable())
	}
	terms[2*n].setPrecomputed(&sB, basepointNafTable())

	var sum, eight point
	return eight.mulByCofactor(varTimeMultiScalarMult(&sum, terms)).isIdentity()
}
