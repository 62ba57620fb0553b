package ed25519x

import (
	"encoding/binary"
	"math/big"
)

// order is l = 2^252 + 27742317777372353535851937790883648493, the
// prime order of the Ed25519 base-point subgroup.
var order, _ = new(big.Int).SetString(
	"7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// scalar is an integer mod l. Scalar arithmetic is a vanishing
// fraction of batch verification (a handful of big.Int multiplications
// versus thousands of field multiplications), so math/big keeps this
// simple rather than hand-rolling 4-limb Barrett reduction.
type scalar struct {
	v big.Int
	q big.Int // setUniform's quotient, whose words a reused scalar keeps
}

// setCanonical loads a little-endian 32-byte scalar, rejecting values
// >= l. RFC 8032 verification requires this bound on the signature's S
// component; accepting the redundant encodings would make signatures
// malleable.
func (s *scalar) setCanonical(b []byte) bool {
	return len(b) == 32 && s.setBytesLE(b).v.Cmp(order) < 0
}

// setUniform loads a 64-byte little-endian value (a SHA-512 digest)
// reduced mod l.
func (s *scalar) setUniform(b []byte) *scalar {
	s.setBytesLE(b[:64])
	s.q.QuoRem(&s.v, order, &s.v) // Mod, without a fresh quotient
	return s
}

// setBytesLE loads up to 64 little-endian bytes without reduction (also
// used as is for the random 128-bit batching coefficients, which are
// well under l).
func (s *scalar) setBytesLE(b []byte) *scalar {
	var be [64]byte
	for i, c := range b {
		be[len(b)-1-i] = c
	}
	s.v.SetBytes(be[:len(b)])
	return s
}

// mulAdd sets s = a*b + c mod l. Any of a, b, c may alias s.
func (s *scalar) mulAdd(a, b, c *scalar) *scalar {
	var prod big.Int
	prod.Mul(&a.v, &b.v)
	prod.Add(&prod, &c.v)
	s.v.Mod(&prod, order)
	return s
}

// mul sets s = a*b mod l.
func (s *scalar) mul(a, b *scalar) *scalar {
	s.v.Mul(&a.v, &b.v)
	s.v.Mod(&s.v, order)
	return s
}

// add sets s = a+b mod l.
func (s *scalar) add(a, b *scalar) *scalar {
	s.v.Add(&a.v, &b.v)
	s.v.Mod(&s.v, order)
	return s
}

// nonAdjacentForm decomposes s into width-5 NAF digits: at most one in
// any 5 consecutive positions is non-zero, each odd in [-15, 15]. A
// 253-bit scalar yields at most 254 digits; 256 slots cover it.
//
// The density of non-zero digits is ~1/6, so Straus multi-scalar
// multiplication pays one curve addition per six doublings per term.
func (s *scalar) nonAdjacentForm(naf *[256]int8) {
	*naf = [256]int8{}
	var be [32]byte
	s.v.FillBytes(be[:])
	var k [5]uint64 // little-endian words; the fifth feeds the top windows
	for i := 0; i < 4; i++ {
		k[i] = binary.BigEndian.Uint64(be[24-8*i:])
	}
	// Recode a 5-bit window at a time (curve25519-dalek's algorithm).
	// A negative digit d = w - 32 leaves 32 to add above the window:
	// carry holds it, folded into the next window instead of rippling
	// through the words.
	carry := uint64(0)
	for pos := 0; pos < 256; {
		w := k[pos/64] >> (pos % 64)
		if pos%64 > 64-5 {
			w |= k[pos/64+1] << (64 - pos%64)
		}
		w = carry + w&31
		if w&1 == 0 { // an even window keeps its carry for the next bit
			pos++
			continue
		}
		carry = w >> 4 // w > 15: take w - 32, carry one
		naf[pos] = int8(w) - int8(carry<<5)
		pos += 5
	}
}
