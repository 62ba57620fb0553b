package crypto

// Merkle trees over digests: used by XPaxos's t = 1 reply path so that
// the follower signs one root per batch while each client receives a
// log-size inclusion proof for its own reply, keeping replies small
// regardless of the batch size.

// MerkleRoot computes the root of the tree over the given leaves. An
// empty leaf set has the zero root.
func MerkleRoot(leaves []Digest) Digest {
	root, _ := MerkleTree(leaves)
	return root
}

// MerkleProof is one leaf's sibling path: Siblings[i] is its sibling
// at level i, and Lefts[i] reports whether that sibling is the left one.
type MerkleProof struct {
	Siblings []Digest
	Lefts    []bool
}

// Size returns the proof's wire size in bytes.
func (p *MerkleProof) Size() int { return len(p.Siblings)*DigestSize + len(p.Lefts) }

// MerkleTree builds the tree over leaves once and returns its root and
// the inclusion proof of every leaf, in leaf order. Odd nodes are
// promoted unhashed (Bitcoin-style duplication is avoided to keep
// proofs unambiguous). The proofs share two backing arrays, each
// capped at its own entries.
func MerkleTree(leaves []Digest) (Digest, []MerkleProof) {
	if len(leaves) == 0 {
		return Digest{}, nil
	}
	// levels holds the leaves first and the root alone last.
	levels := [][]Digest{leaves}
	for level := leaves; len(level) > 1; levels = append(levels, level) {
		next := make([]Digest, (len(level)+1)/2)
		for i := range next {
			if 2*i+1 < len(level) {
				next[i] = HashParts([]byte("mrk"), level[2*i][:], level[2*i+1][:])
			} else {
				next[i] = level[2*i]
			}
		}
		level = next
	}
	depth := len(levels) - 1
	proofs := make([]MerkleProof, len(leaves))
	if depth == 0 {
		return leaves[0], proofs
	}
	sibs := make([]Digest, len(leaves)*depth)
	lefts := make([]bool, len(leaves)*depth)
	for i := range proofs {
		p := MerkleProof{Siblings: sibs[i*depth : i*depth : (i+1)*depth], Lefts: lefts[i*depth : i*depth : (i+1)*depth]}
		idx := i
		for _, level := range levels[:depth] {
			if sib := idx ^ 1; sib < len(level) {
				p.Siblings = append(p.Siblings, level[sib])
				p.Lefts = append(p.Lefts, sib < idx)
			}
			idx /= 2
		}
		proofs[i] = p
	}
	return levels[depth][0], proofs
}

// VerifyMerkleProof checks that leaf is included under root.
func VerifyMerkleProof(leaf Digest, proof MerkleProof, root Digest) bool {
	if len(proof.Siblings) != len(proof.Lefts) {
		return false
	}
	cur := leaf
	for i, sib := range proof.Siblings {
		if proof.Lefts[i] {
			cur = HashParts([]byte("mrk"), sib[:], cur[:])
		} else {
			cur = HashParts([]byte("mrk"), cur[:], sib[:])
		}
	}
	return cur == root
}
