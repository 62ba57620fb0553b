//go:build race

package ed25519x

// raceEnabled: the race detector makes sync.Pool drop a share of what
// is put back, so pooled paths allocate under it by design.
const raceEnabled = true
