//go:build !race

package ed25519x

const raceEnabled = false
