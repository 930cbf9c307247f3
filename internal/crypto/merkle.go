package crypto

import "math/bits"

// Merkle tree over transaction lists. The paper's block carries
// h = H(B_prev) for chain integrity; we additionally commit to the
// transaction list with a Merkle root (documented extension, DESIGN.md
// §5).
//
// The tree uses domain-separated hashing (distinct leaf and node tags)
// to prevent second-preimage attacks that splice interior nodes in as
// leaves, and duplicates the final node on odd levels (Bitcoin-style).

const (
	merkleLeafTag = 0x00
	merkleNodeTag = 0x01
)

func merkleLeaf(data []byte) Hash {
	var small [1 + 2*HashSize]byte // a hash-sized leaf needs no heap buffer
	buf := append(small[:0], merkleLeafTag)
	buf = append(buf, data...)
	return Sum(buf)
}

func merkleNode(left, right Hash) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = merkleNodeTag
	copy(buf[1:], left[:])
	copy(buf[1+HashSize:], right[:])
	return Sum(buf[:])
}

// MerkleRoot computes the root commitment over the given leaf payloads.
// An empty list yields ZeroHash, the conventional root of an empty
// block.
func MerkleRoot(leaves [][]byte) Hash {
	switch len(leaves) {
	case 0:
		return ZeroHash
	case 1:
		return merkleLeaf(leaves[0])
	}
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = merkleLeaf(l)
	}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, merkleNode(level[i], level[i+1]))
			} else {
				next = append(next, merkleNode(level[i], level[i]))
			}
		}
		level = next
	}
	return level[0]
}

// MerkleRootHashes is MerkleRoot over the hashes' bytes as leaves,
// computed without allocating: a provider batch's signed root over its
// transaction IDs is checked per batch per upload.
func MerkleRootHashes(leaves []Hash) Hash {
	var b MerkleBuilder
	for i := range leaves {
		b.push(merkleLeaf(leaves[i][:]))
	}
	return b.Root()
}

// MerkleBuilder computes the same commitment as MerkleRoot but
// incrementally: leaves are appended one at a time while a block is
// being packed, and the root is available in O(log n) once packing
// finishes, instead of re-hashing every leaf at commit.
//
// After n leaves, level k of the tree holds ⌊n/2^k⌋ completed 2^k-leaf
// subtrees, of which only the last can still lack its right sibling —
// exactly when that count is odd, that is when bit k of n is set. So
// the builder keeps one pending root per level: appending a leaf
// carries it up through the set low bits of n, pairing it with each
// pending root, as a binary counter carries. Root folds the pending
// roots with the odd-duplication rule, which reproduces MerkleRoot
// exactly (equivalence sketch in DESIGN.md §4f, exhaustive test in
// merkle_builder_test.go).
//
// A builder needs no heap beyond its leaf-tagging scratch, so
// steady-state Add performs no allocation; the zero value is an empty
// builder. A builder is not safe for concurrent use.
type MerkleBuilder struct {
	// pending[k] is the last completed 2^k-subtree root; it is waiting
	// for a sibling when bit k of n is set.
	pending [64]Hash
	// scratch is the reusable leaf-tagging buffer.
	scratch []byte
	// n is the number of leaves added since the last Reset.
	n uint64
}

// NewMerkleBuilder returns an empty builder.
func NewMerkleBuilder() *MerkleBuilder { return &MerkleBuilder{} }

// Reset discards all leaves but keeps the scratch buffer for reuse.
func (b *MerkleBuilder) Reset() { b.n = 0 }

// Len reports the number of leaves added since the last Reset.
func (b *MerkleBuilder) Len() int { return int(b.n) }

// Add appends one leaf payload to the tree.
func (b *MerkleBuilder) Add(leaf []byte) {
	b.scratch = append(b.scratch[:0], merkleLeafTag)
	b.scratch = append(b.scratch, leaf...)
	b.push(Sum(b.scratch))
}

// push appends a leaf hash, combining it upward with every pending root
// it completes a pair with.
func (b *MerkleBuilder) push(h Hash) {
	k := 0
	for ; b.n>>k&1 == 1; k++ {
		h = merkleNode(b.pending[k], h)
	}
	b.pending[k] = h
	b.n++
}

// Root returns the Merkle root over the leaves added so far, ZeroHash
// for an empty builder. It does not modify the builder; more leaves may
// be added afterwards.
func (b *MerkleBuilder) Root() Hash {
	if b.n == 0 {
		return ZeroHash
	}
	// Fold levels bottom-up. carry is the root of the trailing partial
	// subtree formed below the current level; a pending root absorbs it,
	// and per the odd-duplication rule a pending root or carry without a
	// partner pairs with itself.
	top := bits.Len64(b.n) - 1
	var carry Hash
	have := false
	for k := 0; k <= top; k++ {
		odd := b.n>>k&1 == 1
		switch {
		case odd && have:
			carry = merkleNode(b.pending[k], carry)
		case odd && k == top:
			// The top level always holds exactly one node; with no
			// carry pending it is the root itself.
			return b.pending[k]
		case odd:
			carry = merkleNode(b.pending[k], b.pending[k])
			have = true
		case have:
			carry = merkleNode(carry, carry)
		}
	}
	return carry
}
