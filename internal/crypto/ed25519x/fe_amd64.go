//go:build !purego

package ed25519x

// feMul and feSquare are fe_amd64.s's assembly: each sets out to what
// feMulGeneric or feSquareGeneric would.

//go:noescape
func feMul(out *fe, a *fe, b *fe)

//go:noescape
func feSquare(out *fe, a *fe)
