package crypto

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/keys.golden from the current key derivation")

// TestKeyGolden pins the Ed25519 suite's key material: for two seeds,
// each listed id's private seed and public key, its signature over a
// fixed message (Ed25519 is deterministic) and the MACs of four
// channels in both directions. testdata/keys.golden was generated while
// the suite still built every key up front; deriving keys on demand
// must not change one byte of it.
func TestKeyGolden(t *testing.T) {
	ids := []NodeID{0, 1, 2, 1024, 1026}
	channels := [][2]NodeID{{0, 1}, {1, 0}, {2, 1026}, {1026, 2}}
	msg := []byte("xft key golden")
	var sb strings.Builder
	for _, seed := range []int64{7, 42} {
		s := NewEd25519Suite(3+1024, seed)
		for _, id := range ids {
			fmt.Fprintf(&sb, "seed %d id %d priv %x pub %x\n", seed, id, s.PrivateKey(id).Seed(), s.PublicKey(id))
			fmt.Fprintf(&sb, "seed %d id %d sign %x\n", seed, id, s.Sign(id, msg))
		}
		for _, c := range channels {
			fmt.Fprintf(&sb, "seed %d mac %d->%d %x\n", seed, c[0], c[1], s.MAC(c[0], c[1], msg))
		}
	}
	const path = "testdata/keys.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("key material drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
