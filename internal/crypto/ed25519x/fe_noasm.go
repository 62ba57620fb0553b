//go:build !amd64 || purego

package ed25519x

func feMul(out, a, b *fe) { feMulGeneric(out, a, b) }

func feSquare(out, a *fe) { feSquareGeneric(out, a) }
