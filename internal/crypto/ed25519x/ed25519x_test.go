package ed25519x

import (
	"crypto/ed25519"
	"crypto/sha512"
	"math/big"
	"math/rand"
	"testing"
)

var p25519, _ = new(big.Int).SetString(
	"57896044618658097711785492504343953926634992332820282019728792003956564819949", 10)

func feToBig(v *fe) *big.Int {
	var b [32]byte
	v.bytes(&b)
	var be [32]byte
	for i := range be {
		be[i] = b[31-i]
	}
	return new(big.Int).SetBytes(be[:])
}

func bigToFe(x *big.Int) fe {
	var m big.Int
	m.Mod(x, p25519)
	var be [32]byte
	m.FillBytes(be[:])
	var le [32]byte
	for i := range le {
		le[i] = be[31-i]
	}
	var v fe
	v.setBytes(le[:])
	return v
}

func randBig(rng *rand.Rand) *big.Int {
	b := make([]byte, 32)
	rng.Read(b)
	return new(big.Int).Mod(new(big.Int).SetBytes(b), p25519)
}

// TestFieldOpsAgainstBig cross-checks add/sub/mul/square/invert against
// math/big arithmetic mod 2^255-19.
func TestFieldOpsAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mod := func(x *big.Int) *big.Int { return x.Mod(x, p25519) }
	for i := 0; i < 200; i++ {
		ab, bb := randBig(rng), randBig(rng)
		a, b := bigToFe(ab), bigToFe(bb)
		var r fe
		if got, want := feToBig(r.add(&a, &b)), mod(new(big.Int).Add(ab, bb)); got.Cmp(want) != 0 {
			t.Fatalf("add mismatch: got %v want %v", got, want)
		}
		if got, want := feToBig(r.sub(&a, &b)), mod(new(big.Int).Sub(ab, bb)); got.Cmp(want) != 0 {
			t.Fatalf("sub mismatch: got %v want %v", got, want)
		}
		if got, want := feToBig(r.mul(&a, &b)), mod(new(big.Int).Mul(ab, bb)); got.Cmp(want) != 0 {
			t.Fatalf("mul mismatch: got %v want %v", got, want)
		}
		if got, want := feToBig(r.square(&a)), mod(new(big.Int).Mul(ab, ab)); got.Cmp(want) != 0 {
			t.Fatalf("square mismatch: got %v want %v", got, want)
		}
		if ab.Sign() != 0 {
			inv := new(big.Int).ModInverse(ab, p25519)
			if got := feToBig(r.invert(&a)); got.Cmp(inv) != 0 {
				t.Fatalf("invert mismatch: got %v want %v", got, inv)
			}
		}
	}
}

// TestFieldKernelMatchesGeneric holds feMul and feSquare (the assembly
// kernel on amd64) to the Go bodies bit for bit, limb by limb: every
// field element, and so every verdict, must be the same on both paths.
// Inputs run past the 2^52 bound that operations keep, to 2^54.
func TestFieldKernelMatchesGeneric(t *testing.T) {
	check := func(a, b fe) {
		t.Helper()
		var got, want fe
		feMul(&got, &a, &b)
		feMulGeneric(&want, &a, &b)
		if got != want {
			t.Fatalf("feMul(%v, %v) = %v, generic %v", a, b, got, want)
		}
		feSquare(&got, &a)
		feSquareGeneric(&want, &a)
		if got != want {
			t.Fatalf("feSquare(%v) = %v, generic %v", a, got, want)
		}
		// Aliased output, as in t.square(&t) and t.mul(&t, a).
		got, want = a, a
		feMul(&got, &got, &b)
		feMulGeneric(&want, &want, &b)
		if got != want {
			t.Fatalf("aliased feMul(%v, %v) = %v, generic %v", a, b, got, want)
		}
	}

	edges := []uint64{0, 1<<51 - 1, 1<<52 - 1, 1<<54 - 1}
	var vecs []fe
	for i := 0; i < 1<<10; i++ { // every 5-limb vector over the edges
		var l [5]uint64
		for j := range l {
			l[j] = edges[(i>>(2*j))&3]
		}
		vecs = append(vecs, fe{l[0], l[1], l[2], l[3], l[4]})
	}
	for i := range vecs {
		for j := 0; j < len(vecs); j += 7 {
			check(vecs[i], vecs[j])
		}
	}

	rng := rand.New(rand.NewSource(3))
	limb := func() uint64 {
		return rng.Uint64() >> (10 + rng.Intn(4)) // 54, 53, 52 or 51 bits
	}
	for i := 0; i < 100_000; i++ {
		check(fe{limb(), limb(), limb(), limb(), limb()},
			fe{limb(), limb(), limb(), limb(), limb()})
	}
}

// TestConstants verifies the hardcoded curve constants against their
// defining equations.
func TestConstants(t *testing.T) {
	// d = -121665/121666 mod p.
	inv := new(big.Int).ModInverse(big.NewInt(121666), p25519)
	d := new(big.Int).Mul(big.NewInt(-121665), inv)
	d.Mod(d, p25519)
	if got := feToBig(&constD); got.Cmp(d) != 0 {
		t.Errorf("constD = %v, want %v", got, d)
	}
	// sqrtM1^2 = -1 mod p.
	sq := new(big.Int).Mul(feToBig(&sqrtM1), feToBig(&sqrtM1))
	sq.Mod(sq, p25519)
	want := new(big.Int).Sub(p25519, big.NewInt(1))
	if sq.Cmp(want) != 0 {
		t.Errorf("sqrtM1^2 = %v, want p-1", sq)
	}
	// Basepoint y = 4/5 mod p.
	y := new(big.Int).Mul(big.NewInt(4), new(big.Int).ModInverse(big.NewInt(5), p25519))
	y.Mod(y, p25519)
	if got := feToBig(&basepoint.y); got.Cmp(y) != 0 {
		t.Errorf("basepoint y = %v, want %v", got, y)
	}
}

// TestPointRoundTrip decompresses public keys (valid curve points) and
// re-encodes them.
func TestPointRoundTrip(t *testing.T) {
	for i := 0; i < 32; i++ {
		pub, _, err := ed25519.GenerateKey(deterministicReader(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		var p point
		if err := p.setBytes(pub); err != nil {
			t.Fatalf("setBytes(%x): %v", pub, err)
		}
		var out [32]byte
		p.bytes(&out)
		if string(out[:]) != string(pub) {
			t.Fatalf("round trip: got %x want %x", out, pub)
		}
	}
}

// TestRejectNonCanonicalY checks that y >= p encodings are rejected,
// as in crypto/ed25519.
func TestRejectNonCanonicalY(t *testing.T) {
	// y = p (encodes the same field element as 0, non-canonically).
	var enc [32]byte
	pBytes := make([]byte, 32)
	new(big.Int).Set(p25519).FillBytes(pBytes)
	for i := range enc {
		enc[i] = pBytes[31-i]
	}
	var p point
	if err := p.setBytes(enc[:]); err == nil {
		t.Error("non-canonical y = p accepted")
	}
}

// TestScalarNAF reconstructs scalars from their NAF digits. With the
// digit rules checked too, this pins the one width-5 NAF of each scalar.
func TestScalarNAF(t *testing.T) {
	check := func(v *big.Int) {
		t.Helper()
		var s scalar
		s.v.Set(v)
		var naf [256]int8
		s.nonAdjacentForm(&naf)
		got := new(big.Int)
		lastNonZero := -10
		for pos := 0; pos < 256; pos++ {
			d := int64(naf[pos])
			if d == 0 {
				continue
			}
			if d%2 == 0 || d < -15 || d > 15 {
				t.Fatalf("digit %d at %d out of range", d, pos)
			}
			if pos-lastNonZero < 5 {
				t.Fatalf("digits at %d and %d violate width-5 NAF", lastNonZero, pos)
			}
			lastNonZero = pos
			got.Add(got, new(big.Int).Lsh(big.NewInt(d), uint(pos)))
		}
		if got.Cmp(v) != 0 {
			t.Fatalf("NAF reconstruction: got %v want %v", got, v)
		}
	}
	one := big.NewInt(1)
	// Edges: carries that ripple across words and into the top window.
	for _, v := range []*big.Int{
		big.NewInt(0), one, big.NewInt(31), new(big.Int).Lsh(one, 64),
		new(big.Int).Sub(new(big.Int).Lsh(one, 64), one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 128), one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 252), one),
		new(big.Int).Sub(order, one),
	} {
		check(v)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		b := make([]byte, 32)
		rng.Read(b)
		var s scalar
		s.setBytesLE(b)
		check(s.v.Mod(&s.v, order))
	}
}

// TestVerifyAgainstStdlib checks single cofactored verification against
// crypto/ed25519 on honest and corrupted signatures.
func TestVerifyAgainstStdlib(t *testing.T) {
	for i := 0; i < 32; i++ {
		pub, priv, err := ed25519.GenerateKey(deterministicReader(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		k, err := ParsePublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte{byte(i), 1, 2, 3}
		s := ed25519.Sign(priv, msg)
		if !Verify(k, msg, s) {
			t.Fatalf("valid signature %d rejected", i)
		}
		bad := append([]byte(nil), s...)
		bad[i%64] ^= 0x40
		if Verify(k, msg, bad) {
			t.Fatalf("corrupted signature %d accepted", i)
		}
		if Verify(k, append(msg, 0xff), s) {
			t.Fatalf("signature %d over wrong message accepted", i)
		}
	}
}

// TestVerifyDoesNotAllocate: a warm single verification allocates
// nothing, so the singles a replica checks cost it no garbage.
func TestVerifyDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	pub, priv, _ := ed25519.GenerateKey(deterministicReader(7))
	k, _ := ParsePublicKey(pub)
	msg := []byte("no garbage")
	s := ed25519.Sign(priv, msg)
	if n := testing.AllocsPerRun(100, func() {
		if !Verify(k, msg, s) {
			t.Fatal("rejected")
		}
	}); n != 0 {
		t.Fatalf("Verify allocates %.1f objects per call, want 0", n)
	}
}

// TestCofactoredSmallOrderAgreement pins the predicate the package
// comment states. The key A' = [a]B + T carries a torsion point T of
// order 8, and the signature is made with a alone, so
// [S]B - [k]A' - R = -[k]T: the cofactored equation accepts it, single
// and batched alike, while crypto/ed25519's cofactorless check rejects
// it whenever 8 does not divide k. Were Verify to defer to the standard
// library, batch and single verdicts would part ways here.
func TestCofactoredSmallOrderAgreement(t *testing.T) {
	mult := func(k *big.Int, p *point) point {
		var s scalar
		s.v.Set(k)
		var table nafTable
		table.init(p)
		terms := make([]multiScalarTerm, 1)
		terms[0].setPrecomputed(&s, &table)
		var out point
		varTimeMultiScalarMult(&out, terms)
		return out
	}
	encode := func(p *point) []byte {
		var b [32]byte
		p.bytes(&b)
		return b[:]
	}

	// T = [l]P for a decoded point P outside the prime-order subgroup,
	// chosen so that [4]T is not the identity: T has order exactly 8.
	var T point
	for y := byte(2); ; y++ {
		var P point
		if P.setBytes([]byte{y, 31: 0}) != nil {
			continue
		}
		T = mult(order, &P)
		if four := mult(big.NewInt(4), &T); !four.isIdentity() {
			break
		}
	}
	if eight := mult(big.NewInt(8), &T); !eight.isIdentity() {
		t.Fatal("[l]P has order above 8")
	}

	rng := rand.New(rand.NewSource(8))
	randScalar := func() *big.Int {
		b := make([]byte, 64)
		rng.Read(b)
		return new(big.Int).Mod(new(big.Int).SetBytes(b), order)
	}
	a := randScalar()
	aB := mult(a, &basepoint)
	var cT projCached
	T.toCached(&cT)
	var sum projP1xP1
	var A point
	A.fromP1xP1(sum.add(&aB, &cT))
	pubBytes := encode(&A)
	pub, err := ParsePublicKey(pubBytes)
	if err != nil {
		t.Fatal(err)
	}

	var msg, sigBytes []byte
	for i := 0; ; i++ {
		msg = []byte{byte(i)}
		r := randScalar()
		R := mult(r, &basepoint)
		var k, sa, rs scalar
		h := sha512.Sum512(append(append(encode(&R), pubBytes...), msg...))
		k.setUniform(h[:])
		sa.v.Set(a)
		rs.v.Set(r)
		var S scalar
		S.mulAdd(&k, &sa, &rs) // S = r + k*a
		sigBytes = append(encode(&R), reverse(S.v.FillBytes(make([]byte, 32)))...)
		if !ed25519.Verify(pubBytes, msg, sigBytes) {
			break // 8 does not divide k
		}
	}

	if !Verify(pub, msg, sigBytes) {
		t.Fatal("Verify rejects a signature the cofactored equation holds for")
	}
	if !VerifyBatch([]*PublicKey{pub}, [][]byte{msg}, [][]byte{sigBytes}) {
		t.Fatal("VerifyBatch rejects it alone")
	}
	pubs, msgs, sigs := []*PublicKey{pub}, [][]byte{msg}, [][]byte{sigBytes}
	for i := 0; i < 20; i++ {
		hp, hs, _ := ed25519.GenerateKey(deterministicReader(int64(300 + i)))
		k, _ := ParsePublicKey(hp)
		m := []byte{byte(i), 0xee}
		pubs, msgs, sigs = append(pubs, k), append(msgs, m), append(sigs, ed25519.Sign(hs, m))
	}
	if !VerifyBatch(pubs, msgs, sigs) {
		t.Fatal("VerifyBatch rejects it among 20 honest signatures")
	}
}

// reverse returns b with its bytes in the opposite order (little- to
// big-endian and back).
func reverse(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}

// TestVerifyRejectsHighS checks the S < l malleability bound.
func TestVerifyRejectsHighS(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(deterministicReader(7))
	k, _ := ParsePublicKey(pub)
	msg := []byte("msg")
	s := ed25519.Sign(priv, msg)
	// S' = S + l is the classic malleated signature.
	var sc big.Int
	be := make([]byte, 32)
	for i := 0; i < 32; i++ {
		be[i] = s[63-i]
	}
	sc.SetBytes(be)
	sc.Add(&sc, order)
	out := make([]byte, 32)
	sc.FillBytes(out)
	mal := append([]byte(nil), s...)
	for i := 0; i < 32; i++ {
		mal[32+i] = out[31-i]
	}
	if Verify(k, msg, mal) {
		t.Error("high-S malleated signature accepted")
	}
}

// TestVerifyBatch covers valid batches, single corruptions, and
// degenerate sizes.
func TestVerifyBatch(t *testing.T) {
	const n = 20
	pubs := make([]*PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([][]byte, n)
	for i := 0; i < n; i++ {
		pub, priv, _ := ed25519.GenerateKey(deterministicReader(int64(200 + i)))
		k, err := ParsePublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = k
		msgs[i] = []byte{byte(i), byte(i * 3)}
		sigs[i] = ed25519.Sign(priv, msgs[i])
	}
	if !VerifyBatch(pubs, msgs, sigs) {
		t.Fatal("valid batch rejected")
	}
	if !VerifyBatch(nil, nil, nil) {
		t.Error("empty batch rejected")
	}
	if !VerifyBatch(pubs[:1], msgs[:1], sigs[:1]) {
		t.Error("size-1 batch rejected")
	}
	for _, corrupt := range []int{0, n / 2, n - 1} {
		bad := make([][]byte, n)
		copy(bad, sigs)
		bad[corrupt] = append([]byte(nil), sigs[corrupt]...)
		bad[corrupt][5] ^= 0x01
		if VerifyBatch(pubs, msgs, bad) {
			t.Errorf("batch with corrupted signature %d accepted", corrupt)
		}
	}
	// Signature valid under a different key of the batch.
	swapped := make([]*PublicKey, n)
	copy(swapped, pubs)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if VerifyBatch(swapped, msgs, sigs) {
		t.Error("batch with swapped keys accepted")
	}
}

// deterministicReader yields a fixed pseudorandom stream so key
// generation is reproducible.
type detReader struct{ rng *rand.Rand }

func (r detReader) Read(p []byte) (int, error) { return r.rng.Read(p) }

func deterministicReader(seed int64) detReader {
	return detReader{rng: rand.New(rand.NewSource(seed))}
}

// Challenge-scalar sanity: k must equal SHA512(R||A||M) mod l.
func TestChallengeScalar(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(deterministicReader(42))
	k, _ := ParsePublicKey(pub)
	msg := []byte("challenge")
	sigBytes := ed25519.Sign(priv, msg)
	var s sig
	if !s.parse(k, msg, sigBytes) {
		t.Fatal("parse failed")
	}
	h := sha512.Sum512(append(append(append([]byte(nil), sigBytes[:32]...), pub...), msg...))
	var be [64]byte
	for i := range be {
		be[i] = h[63-i]
	}
	want := new(big.Int).SetBytes(be[:])
	want.Mod(want, order)
	if s.k.v.Cmp(want) != 0 {
		t.Fatalf("challenge scalar mismatch")
	}
}
