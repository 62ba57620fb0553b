package ed25519x

import "errors"

// Curve constants, loaded from their canonical little-endian encodings
// at init (and cross-checked against math/big in the tests):
//
//	d      = -121665/121666 mod p   (the twisted Edwards constant)
//	sqrtM1 = sqrt(-1) mod p
var (
	constD  fe
	constD2 fe // 2d
	sqrtM1  fe

	// basepoint is the standard generator B (y = 4/5, x positive).
	basepoint point
)

var errBadPoint = errors.New("ed25519x: invalid point encoding")

func init() {
	dBytes := [32]byte{
		0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75,
		0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
		0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c,
		0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52,
	}
	sqrtM1Bytes := [32]byte{
		0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4,
		0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43, 0x2f,
		0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b,
		0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b,
	}
	constD.setBytes(dBytes[:])
	constD2.add(&constD, &constD)
	sqrtM1.setBytes(sqrtM1Bytes[:])
	bp := [32]byte{0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
		0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
		0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
		0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66}
	if err := basepoint.setBytes(bp[:]); err != nil {
		panic("ed25519x: basepoint decoding failed")
	}
}

// point is a group element in extended coordinates: x = X/Z, y = Y/Z,
// T = XY/Z.
type point struct {
	x, y, z, t fe
}

// projP2 holds projective coordinates, the natural input of doubling.
type projP2 struct {
	x, y, z fe
}

// projP1xP1 is the "completed" intermediate produced by additions and
// doublings before renormalization.
type projP1xP1 struct {
	x, y, z, t fe
}

// projCached is a precomputed addend: (Y+X, Y-X, Z, 2dT).
type projCached struct {
	yPlusX, yMinusX, z, t2d fe
}

func (p *point) setIdentity() *point {
	p.x = feZero
	p.y = feOne
	p.z = feOne
	p.t = feZero
	return p
}

// isIdentity reports whether p is the group identity. Projectively:
// X = 0 and Y = Z.
func (p *point) isIdentity() bool {
	return p.x.isZero() && p.y.equal(&p.z)
}

// neg sets p = -q: negate x and t.
func (p *point) neg(q *point) *point {
	p.x.neg(&q.x)
	p.y = q.y
	p.z = q.z
	p.t.neg(&q.t)
	return p
}

// setBytes decodes a compressed point per RFC 8032: 255 bits of y plus
// a sign bit for x. Non-canonical y encodings (y >= p) are rejected,
// matching crypto/ed25519.
func (p *point) setBytes(b []byte) error {
	if len(b) != 32 {
		return errBadPoint
	}
	p.y.setBytes(b)
	// Canonicality: re-encoding must reproduce the input (sans sign).
	var reenc [32]byte
	p.y.bytes(&reenc)
	for i := 0; i < 31; i++ {
		if reenc[i] != b[i] {
			return errBadPoint
		}
	}
	if reenc[31] != b[31]&0x7f {
		return errBadPoint
	}

	// x^2 = (y^2 - 1) / (d y^2 + 1).
	var y2, u, v fe
	y2.square(&p.y)
	u.sub(&y2, &feOne)
	v.mul(&y2, &constD)
	v.add(&v, &feOne)
	if !p.x.sqrtRatio(&u, &v) {
		return errBadPoint
	}
	if b[31]>>7 == 1 {
		if p.x.isZero() {
			return errBadPoint // -0 is not a valid encoding
		}
		p.x.neg(&p.x)
	}
	p.z = feOne
	p.t.mul(&p.x, &p.y)
	return nil
}

// bytes returns the canonical compressed encoding.
func (p *point) bytes(out *[32]byte) {
	// Affine conversion needs 1/Z; batch verification never calls this
	// on a hot path, so a plain Fermat inversion is fine.
	var zInv, x, y fe
	zInv.invert(&p.z)
	x.mul(&p.x, &zInv)
	y.mul(&p.y, &zInv)
	y.bytes(out)
	if x.isNegative() {
		out[31] |= 0x80
	}
}

// invert sets v = 1/a via a^(p-2) = a^(2^255 - 21).
func (v *fe) invert(a *fe) *fe {
	// (p-2) = (2^252 - 3) * 8 + 3: reuse pow22523.
	var t fe
	t.pow22523(a) // a^(2^252 - 3)
	t.square(&t)
	t.square(&t)
	t.square(&t) // a^(2^255 - 24)
	t.mul(&t, a)
	t.mul(&t, a)
	return v.mul(&t, a) // a^(2^255 - 21)
}

// toCached prepares p as an addend.
func (p *point) toCached(c *projCached) {
	c.yPlusX.add(&p.y, &p.x)
	c.yMinusX.sub(&p.y, &p.x)
	c.z = p.z
	c.t2d.mul(&p.t, &constD2)
}

// fromP1xP1 renormalizes a completed point into extended coordinates.
func (p *point) fromP1xP1(q *projP1xP1) *point {
	p.x.mul(&q.x, &q.t)
	p.y.mul(&q.y, &q.z)
	p.z.mul(&q.z, &q.t)
	p.t.mul(&q.x, &q.y)
	return p
}

// fromP1xP1 renormalizes into projective coordinates (cheaper: no T).
func (p *projP2) fromP1xP1(q *projP1xP1) *projP2 {
	p.x.mul(&q.x, &q.t)
	p.y.mul(&q.y, &q.z)
	p.z.mul(&q.z, &q.t)
	return p
}

func (p *projP2) fromP3(q *point) *projP2 {
	p.x = q.x
	p.y = q.y
	p.z = q.z
	return p
}

// add computes p + cached.
func (v *projP1xP1) add(p *point, q *projCached) *projP1xP1 {
	var pp, mm, tt2d, zz2 fe
	pp.add(&p.y, &p.x)
	mm.sub(&p.y, &p.x)
	pp.mul(&pp, &q.yPlusX)
	mm.mul(&mm, &q.yMinusX)
	tt2d.mul(&p.t, &q.t2d)
	zz2.mul(&p.z, &q.z)
	zz2.add(&zz2, &zz2)
	v.x.sub(&pp, &mm)
	v.y.add(&pp, &mm)
	v.z.add(&zz2, &tt2d)
	v.t.sub(&zz2, &tt2d)
	return v
}

// sub computes p - cached.
func (v *projP1xP1) sub(p *point, q *projCached) *projP1xP1 {
	var pp, mm, tt2d, zz2 fe
	pp.add(&p.y, &p.x)
	mm.sub(&p.y, &p.x)
	pp.mul(&pp, &q.yMinusX) // swapped: adding the negation
	mm.mul(&mm, &q.yPlusX)
	tt2d.mul(&p.t, &q.t2d)
	zz2.mul(&p.z, &q.z)
	zz2.add(&zz2, &zz2)
	v.x.sub(&pp, &mm)
	v.y.add(&pp, &mm)
	v.z.sub(&zz2, &tt2d)
	v.t.add(&zz2, &tt2d)
	return v
}

// double computes 2p.
func (v *projP1xP1) double(p *projP2) *projP1xP1 {
	var xx, yy, zz2, xPlusYsq fe
	xx.square(&p.x)
	yy.square(&p.y)
	zz2.square(&p.z)
	zz2.add(&zz2, &zz2)
	xPlusYsq.add(&p.x, &p.y)
	xPlusYsq.square(&xPlusYsq)
	v.y.add(&yy, &xx)
	v.z.sub(&yy, &xx)
	v.x.sub(&xPlusYsq, &v.y)
	v.t.sub(&zz2, &v.z)
	return v
}

// nafTable holds odd multiples {1, 3, 5, ..., 15}P for width-5 NAF.
type nafTable [8]projCached

func (t *nafTable) init(p *point) {
	var p2 point
	var cc projCached
	var tmp projP1xP1
	var pr projP2
	p.toCached(&t[0])
	pr.fromP3(p)
	p2.fromP1xP1(tmp.double(&pr)) // 2P
	p2.toCached(&cc)
	cur := *p
	for i := 1; i < 8; i++ {
		cur.fromP1xP1(tmp.add(&cur, &cc)) // (2i+1)P
		cur.toCached(&t[i])
	}
}

// select returns the cached entry for odd digit |d| (d in 1,3,..,15).
func (t *nafTable) entry(d int8) *projCached {
	return &t[d/2]
}

// multiScalarTerm is one scalar*point product in a multi-scalar
// multiplication.
type multiScalarTerm struct {
	naf   [256]int8
	table *nafTable
	top   int // highest non-zero NAF position
}

// setPrecomputed points the term at an already-built table: the
// basepoint's, a cached public key's, or one of a batch's R tables.
func (m *multiScalarTerm) setPrecomputed(s *scalar, table *nafTable) {
	m.table = table
	m.setScalar(s)
}

func (m *multiScalarTerm) setScalar(s *scalar) {
	s.nonAdjacentForm(&m.naf)
	m.top = -1
	for i := 255; i >= 0; i-- {
		if m.naf[i] != 0 {
			m.top = i
			break
		}
	}
}

// varTimeMultiScalarMult sets acc to the sum of all terms with a shared
// doubling chain (Straus's trick): one run of ~253 doublings total,
// independent of the number of terms, plus ~N/6 additions per term.
// This shared chain is where batching beats one-at-a-time
// verification, which pays the doublings per signature.
func varTimeMultiScalarMult(acc *point, terms []multiScalarTerm) *point {
	top := -1
	for i := range terms {
		if terms[i].top > top {
			top = terms[i].top
		}
	}
	acc.setIdentity()
	if top < 0 {
		return acc
	}
	var t projP1xP1
	var p2 projP2
	p2.fromP3(acc)
	for i := top; i >= 0; i-- {
		t.double(&p2)
		for j := range terms {
			d := terms[j].naf[i]
			if d == 0 {
				continue
			}
			acc.fromP1xP1(&t)
			if d > 0 {
				t.add(acc, terms[j].table.entry(d))
			} else {
				t.sub(acc, terms[j].table.entry(-d))
			}
		}
		if i == 0 {
			break
		}
		p2.fromP1xP1(&t)
	}
	return acc.fromP1xP1(&t)
}

// mulByCofactor sets p = 8q.
func (p *point) mulByCofactor(q *point) *point {
	var t projP1xP1
	var p2 projP2
	p2.fromP3(q)
	t.double(&p2)
	p2.fromP1xP1(&t)
	t.double(&p2)
	p2.fromP1xP1(&t)
	t.double(&p2)
	return p.fromP1xP1(&t)
}
