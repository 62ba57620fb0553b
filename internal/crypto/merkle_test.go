package crypto

import (
	"fmt"
	"reflect"
	"testing"
)

// perLeafProof is the proof builder MerkleTree replaced, kept as the
// reference: it rebuilds the whole tree for one leaf.
func perLeafProof(leaves []Digest, idx int) MerkleProof {
	var proof MerkleProof
	level := append([]Digest(nil), leaves...)
	for len(level) > 1 {
		sib := idx ^ 1
		if sib < len(level) {
			proof.Siblings = append(proof.Siblings, level[sib])
			proof.Lefts = append(proof.Lefts, sib < idx)
		}
		out := make([]Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				out = append(out, HashParts([]byte("mrk"), level[i][:], level[i+1][:]))
			} else {
				out = append(out, level[i])
			}
		}
		level = out
		idx /= 2
	}
	return proof
}

// TestMerkleTreeMatchesPerLeafProofs checks, for every tree size up to
// 40, that the one-pass proofs equal the per-leaf ones (so the replies
// that carry them keep their bytes), that each verifies under the
// root, and that flipping the leaf, a sibling or a direction bit makes
// it fail.
func TestMerkleTreeMatchesPerLeafProofs(t *testing.T) {
	for n := 1; n <= 40; n++ {
		leaves := make([]Digest, n)
		for i := range leaves {
			leaves[i] = Hash([]byte(fmt.Sprintf("leaf %d of %d", i, n)))
		}
		root, proofs := MerkleTree(leaves)
		if root != MerkleRoot(leaves) || len(proofs) != n {
			t.Fatalf("n=%d: root %v (MerkleRoot %v), %d proofs", n, root, MerkleRoot(leaves), len(proofs))
		}
		for i, p := range proofs {
			if want := perLeafProof(leaves, i); !reflect.DeepEqual(p, want) {
				t.Fatalf("n=%d leaf %d: proof %+v, per-leaf %+v", n, i, p, want)
			}
			if !VerifyMerkleProof(leaves[i], p, root) {
				t.Fatalf("n=%d leaf %d: proof does not verify", n, i)
			}
			flipped := leaves[i]
			flipped[0] ^= 1
			if VerifyMerkleProof(flipped, p, root) {
				t.Fatalf("n=%d leaf %d: a flipped leaf verifies", n, i)
			}
			for j := range p.Siblings {
				bad := MerkleProof{Siblings: append([]Digest(nil), p.Siblings...), Lefts: p.Lefts}
				bad.Siblings[j][31] ^= 1
				if VerifyMerkleProof(leaves[i], bad, root) {
					t.Fatalf("n=%d leaf %d: flipped sibling %d verifies", n, i, j)
				}
				bad = MerkleProof{Siblings: p.Siblings, Lefts: append([]bool(nil), p.Lefts...)}
				bad.Lefts[j] = !bad.Lefts[j]
				if VerifyMerkleProof(leaves[i], bad, root) {
					t.Fatalf("n=%d leaf %d: flipped direction %d verifies", n, i, j)
				}
			}
		}
	}
	if root, proofs := MerkleTree(nil); root != (Digest{}) || proofs != nil {
		t.Fatalf("empty tree: root %v, proofs %v", root, proofs)
	}
}
