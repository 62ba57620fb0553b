// Package ed25519x implements batch verification of Ed25519
// signatures: many (public key, message, signature) triples are checked
// in a single multi-scalar multiplication, amortizing the curve
// doublings that dominate one-at-a-time verification. At the paper's
// batch size of 20 this roughly halves the per-signature cost on top of
// whatever parallelism the caller adds (Section 4.5 of the XFT paper
// batches requests for exactly this reason).
//
// The standard library does not export curve arithmetic, so this
// package carries its own: a radix-2^51 field, ref10-style
// extended/completed point coordinates, and width-5 w-NAF Straus
// multi-scalar multiplication. The field multiply and square, most of
// the work, run on amd64 as the standard library's assembly kernel
// (fe_amd64.s, the same limb layout and reduction) and elsewhere, or
// under the purego build tag, as the Go bodies it is tested against
// bit for bit. Everything here is *verification* of public data, so
// all arithmetic is variable-time by design; do not reuse it for
// signing or key handling.
//
// Verification is cofactored — the batch equation is multiplied by 8
// before the identity check, as in ed25519consensus/ZIP-215 — so a
// batch verdict and this package's single-signature Verify always
// agree, regardless of how a batch is split. For signatures produced by
// honest signers the verdict also coincides with crypto/ed25519's;
// the two can differ only on adversarial signatures involving
// small-order components, which cofactorless verifiers may reject while
// the cofactored equation accepts. All replicas in a deployment run the
// same verifier, so this choice is consensus-safe.
package ed25519x

import "math/bits"

// fe is a field element of GF(2^255-19) in radix 2^51: the value is
// l0 + l1*2^51 + l2*2^102 + l3*2^153 + l4*2^204. Limbs are loosely
// reduced: bounded by 2^52, not 2^51, between operations.
type fe struct {
	l0, l1, l2, l3, l4 uint64
}

const maskLow51 = (1 << 51) - 1

var (
	feZero = fe{}
	feOne  = fe{l0: 1}
)

// setBytes loads a 32-byte little-endian encoding, ignoring the high
// bit (bit 255), as RFC 8032 prescribes for point decoding.
func (v *fe) setBytes(x []byte) *fe {
	_ = x[31]
	le := func(b []byte) uint64 {
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	v.l0 = le(x[0:8]) & maskLow51
	v.l1 = (le(x[6:14]) >> 3) & maskLow51
	v.l2 = (le(x[12:20]) >> 6) & maskLow51
	v.l3 = (le(x[19:27]) >> 1) & maskLow51
	v.l4 = (le(x[24:32]) >> 12) & maskLow51
	return v
}

// bytes appends the canonical 32-byte little-endian encoding of v.
func (v *fe) bytes(out *[32]byte) {
	t := *v
	t.reduce()
	put := func(off int, val uint64, n int) {
		for i := 0; i < n; i++ {
			out[off+i] |= byte(val >> (8 * i))
		}
	}
	*out = [32]byte{}
	put(0, t.l0, 8)
	put(6, t.l1<<3, 8)
	put(12, t.l2<<6, 8)
	put(19, t.l3<<1, 8)
	put(25, t.l4<<4, 7)
}

// reduce brings v to its canonical representative in [0, p).
func (v *fe) reduce() {
	v.carryPropagate()
	// After carry propagation limbs fit 51 bits, so v < 2^255; at most
	// one conditional subtraction of p remains. Detect v >= p by adding
	// 19 and watching the carry out of bit 255.
	c := (v.l0 + 19) >> 51
	c = (v.l1 + c) >> 51
	c = (v.l2 + c) >> 51
	c = (v.l3 + c) >> 51
	c = (v.l4 + c) >> 51
	v.l0 += 19 * c
	v.l1 += v.l0 >> 51
	v.l0 &= maskLow51
	v.l2 += v.l1 >> 51
	v.l1 &= maskLow51
	v.l3 += v.l2 >> 51
	v.l2 &= maskLow51
	v.l4 += v.l3 >> 51
	v.l3 &= maskLow51
	v.l4 &= maskLow51 // discards the 2^255 bit, i.e. subtracts p
}

// carryPropagate restores the 51-bit limb bound.
func (v *fe) carryPropagate() *fe {
	c0 := v.l0 >> 51
	c1 := v.l1 >> 51
	c2 := v.l2 >> 51
	c3 := v.l3 >> 51
	c4 := v.l4 >> 51
	v.l0 = v.l0&maskLow51 + c4*19
	v.l1 = v.l1&maskLow51 + c0
	v.l2 = v.l2&maskLow51 + c1
	v.l3 = v.l3&maskLow51 + c2
	v.l4 = v.l4&maskLow51 + c3
	return v
}

// add sets v = a + b.
func (v *fe) add(a, b *fe) *fe {
	v.l0 = a.l0 + b.l0
	v.l1 = a.l1 + b.l1
	v.l2 = a.l2 + b.l2
	v.l3 = a.l3 + b.l3
	v.l4 = a.l4 + b.l4
	return v.carryPropagate()
}

// sub sets v = a - b, adding 2p first so limbs never underflow.
func (v *fe) sub(a, b *fe) *fe {
	v.l0 = a.l0 + 0xFFFFFFFFFFFDA - b.l0
	v.l1 = a.l1 + 0xFFFFFFFFFFFFE - b.l1
	v.l2 = a.l2 + 0xFFFFFFFFFFFFE - b.l2
	v.l3 = a.l3 + 0xFFFFFFFFFFFFE - b.l3
	v.l4 = a.l4 + 0xFFFFFFFFFFFFE - b.l4
	return v.carryPropagate()
}

// neg sets v = -a.
func (v *fe) neg(a *fe) *fe { return v.sub(&feZero, a) }

// isZero reports whether v is the canonical zero.
func (v *fe) isZero() bool {
	t := *v
	t.reduce()
	return t.l0|t.l1|t.l2|t.l3|t.l4 == 0
}

// equal reports whether v and u represent the same field element.
func (v *fe) equal(u *fe) bool {
	var d fe
	return d.sub(v, u).isZero()
}

// isNegative reports whether the canonical encoding of v is odd (the
// "sign" of x in point compression).
func (v *fe) isNegative() bool {
	t := *v
	t.reduce()
	return t.l0&1 == 1
}

// uint128 accumulates 51x51-bit products.
type uint128 struct {
	lo, hi uint64
}

func mul51(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	return uint128{lo, hi}
}

func (u uint128) addMul(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	lo, c := bits.Add64(u.lo, lo, 0)
	hi, _ = bits.Add64(u.hi, hi, c)
	return uint128{lo, hi}
}

func (u uint128) shr51() uint64 {
	return u.hi<<13 | u.lo>>51
}

// mul sets v = a * b.
func (v *fe) mul(a, b *fe) *fe {
	feMul(v, a, b)
	return v
}

// square sets v = a * a.
func (v *fe) square(a *fe) *fe {
	feSquare(v, a)
	return v
}

// feMulGeneric sets v = a * b: feMul where there is no assembly.
func feMulGeneric(v, a, b *fe) {
	a0, a1, a2, a3, a4 := a.l0, a.l1, a.l2, a.l3, a.l4
	b0, b1, b2, b3, b4 := b.l0, b.l1, b.l2, b.l3, b.l4

	// Limbs above the 2^255 boundary wrap with a factor of 19
	// (2^255 = 19 mod p).
	a1_19 := a1 * 19
	a2_19 := a2 * 19
	a3_19 := a3 * 19
	a4_19 := a4 * 19

	r0 := mul51(a0, b0).addMul(a1_19, b4).addMul(a2_19, b3).addMul(a3_19, b2).addMul(a4_19, b1)
	r1 := mul51(a0, b1).addMul(a1, b0).addMul(a2_19, b4).addMul(a3_19, b3).addMul(a4_19, b2)
	r2 := mul51(a0, b2).addMul(a1, b1).addMul(a2, b0).addMul(a3_19, b4).addMul(a4_19, b3)
	r3 := mul51(a0, b3).addMul(a1, b2).addMul(a2, b1).addMul(a3, b0).addMul(a4_19, b4)
	r4 := mul51(a0, b4).addMul(a1, b3).addMul(a2, b2).addMul(a3, b1).addMul(a4, b0)

	c0 := r0.shr51()
	c1 := r1.shr51()
	c2 := r2.shr51()
	c3 := r3.shr51()
	c4 := r4.shr51()

	v.l0 = r0.lo&maskLow51 + c4*19
	v.l1 = r1.lo&maskLow51 + c0
	v.l2 = r2.lo&maskLow51 + c1
	v.l3 = r3.lo&maskLow51 + c2
	v.l4 = r4.lo&maskLow51 + c3
	v.carryPropagate()
}

// feSquareGeneric sets v = a * a, sharing the doubled cross terms:
// feSquare where there is no assembly.
func feSquareGeneric(v, a *fe) {
	a0, a1, a2, a3, a4 := a.l0, a.l1, a.l2, a.l3, a.l4

	d0 := a0 * 2
	d1 := a1 * 2
	d2 := a2 * 2
	a3_19 := a3 * 19
	a4_19 := a4 * 19

	r0 := mul51(a0, a0).addMul(d1, a4_19).addMul(d2, a3_19)
	r1 := mul51(d0, a1).addMul(d2, a4_19).addMul(a3, a3_19)
	r2 := mul51(d0, a2).addMul(a1, a1).addMul(a3*2, a4_19)
	r3 := mul51(d0, a3).addMul(d1, a2).addMul(a4, a4_19)
	r4 := mul51(d0, a4).addMul(d1, a3).addMul(a2, a2)

	c0 := r0.shr51()
	c1 := r1.shr51()
	c2 := r2.shr51()
	c3 := r3.shr51()
	c4 := r4.shr51()

	v.l0 = r0.lo&maskLow51 + c4*19
	v.l1 = r1.lo&maskLow51 + c0
	v.l2 = r2.lo&maskLow51 + c1
	v.l3 = r3.lo&maskLow51 + c2
	v.l4 = r4.lo&maskLow51 + c3
	v.carryPropagate()
}

// pow22523 sets v = a^((p-5)/8) = a^(2^252 - 3), the exponentiation at
// the heart of the square-root-ratio computation.
func (v *fe) pow22523(a *fe) *fe {
	var t0, t1, t2 fe

	t0.square(a)             // a^2
	t1.square(&t0)           // a^4
	t1.square(&t1)           // a^8
	t1.mul(a, &t1)           // a^9
	t0.mul(&t0, &t1)         // a^11
	t0.square(&t0)           // a^22
	t0.mul(&t1, &t0)         // a^31      = a^(2^5 - 2^0)
	t1.square(&t0)           //
	for i := 1; i < 5; i++ { // a^(2^10 - 2^5)
		t1.square(&t1)
	}
	t0.mul(&t1, &t0)          // a^(2^10 - 2^0)
	t1.square(&t0)            //
	for i := 1; i < 10; i++ { // a^(2^20 - 2^10)
		t1.square(&t1)
	}
	t1.mul(&t1, &t0)          // a^(2^20 - 2^0)
	t2.square(&t1)            //
	for i := 1; i < 20; i++ { // a^(2^40 - 2^20)
		t2.square(&t2)
	}
	t1.mul(&t2, &t1)          // a^(2^40 - 2^0)
	t1.square(&t1)            //
	for i := 1; i < 10; i++ { // a^(2^50 - 2^10)
		t1.square(&t1)
	}
	t0.mul(&t1, &t0)          // a^(2^50 - 2^0)
	t1.square(&t0)            //
	for i := 1; i < 50; i++ { // a^(2^100 - 2^50)
		t1.square(&t1)
	}
	t1.mul(&t1, &t0)           // a^(2^100 - 2^0)
	t2.square(&t1)             //
	for i := 1; i < 100; i++ { // a^(2^200 - 2^100)
		t2.square(&t2)
	}
	t1.mul(&t2, &t1)          // a^(2^200 - 2^0)
	t1.square(&t1)            //
	for i := 1; i < 50; i++ { // a^(2^250 - 2^50)
		t1.square(&t1)
	}
	t0.mul(&t1, &t0) // a^(2^250 - 2^0)
	t0.square(&t0)   // a^(2^251 - 2^1)
	t0.square(&t0)   // a^(2^252 - 2^2)
	return v.mul(&t0, a)
}

// sqrtRatio sets v to the non-negative square root of u/w if one
// exists, reporting success. Used by point decompression.
func (v *fe) sqrtRatio(u, w *fe) bool {
	var w2, w3, w7, uw7, r, check, negU fe
	w2.square(w)
	w3.mul(&w2, w)
	w7.mul(&w3, &w3)
	w7.mul(&w7, w)
	uw7.mul(u, &w7)
	r.pow22523(&uw7)
	r.mul(&r, &w3)
	r.mul(&r, u) // r = u * w^3 * (u*w^7)^((p-5)/8)

	check.square(&r)
	check.mul(&check, w) // check = w * r^2

	switch {
	case check.equal(u):
		// r is already a square root.
	case check.equal(negU.neg(u)):
		r.mul(&r, &sqrtM1)
	default:
		return false // u/w is not a square
	}
	if r.isNegative() {
		r.neg(&r)
	}
	*v = r
	return true
}
