package crypto

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

// MerkleBuilder computes the same commitment as MerkleRoot but
// incrementally: leaves are appended one at a time while a block is
// being packed, and the root is available in O(log n) once packing
// finishes, instead of re-hashing every leaf at commit.
//
// The builder stores one slice of completed nodes per level. Appending
// a leaf hashes it onto level 0; whenever a level's length becomes
// even, the new pair is combined and pushed to the level above, so at
// every moment level k holds the roots of the completed 2^k-leaf
// subtrees in order. Root folds the at-most-one dangling node per level
// with the odd-duplication rule, which reproduces MerkleRoot exactly
// (equivalence sketch in DESIGN.md §4f, exhaustive test in
// merkle_builder_test.go).
//
// After a Reset the builder reuses its level and scratch storage, so
// steady-state Add performs no heap allocation. A builder is not safe
// for concurrent use.
type MerkleBuilder struct {
	// levels[k] holds the completed 2^k-subtree roots, in leaf order.
	levels [][]Hash
	// scratch is the reusable leaf-tagging buffer.
	scratch []byte
	// n is the number of leaves added since the last Reset.
	n int
}

// NewMerkleBuilder returns a builder with level-0 capacity preallocated
// for sizeHint leaves.
func NewMerkleBuilder(sizeHint int) *MerkleBuilder {
	b := &MerkleBuilder{scratch: make([]byte, 0, 256)}
	if sizeHint > 0 {
		b.levels = append(b.levels, make([]Hash, 0, sizeHint))
	}
	return b
}

// Reset discards all leaves but keeps the allocated levels and scratch
// buffer for reuse.
func (b *MerkleBuilder) Reset() {
	for i := range b.levels {
		b.levels[i] = b.levels[i][:0]
	}
	b.levels = b.levels[:0]
	b.n = 0
}

// Len reports the number of leaves added since the last Reset.
func (b *MerkleBuilder) Len() int { return b.n }

// Add appends one leaf payload to the tree.
func (b *MerkleBuilder) Add(leaf []byte) {
	b.scratch = append(b.scratch[:0], merkleLeafTag)
	b.scratch = append(b.scratch, leaf...)
	b.push(0, Sum(b.scratch))
	b.n++
}

// push appends a completed node to the given level, combining upward
// whenever the append completes a pair.
func (b *MerkleBuilder) push(level int, h Hash) {
	if level == len(b.levels) {
		if level < cap(b.levels) {
			// Reactivate a level truncated by Reset, keeping its
			// allocated node storage.
			b.levels = b.levels[:level+1]
		} else {
			b.levels = append(b.levels, nil)
		}
	}
	b.levels[level] = append(b.levels[level], h)
	if l := b.levels[level]; len(l)%2 == 0 {
		b.push(level+1, merkleNode(l[len(l)-2], l[len(l)-1]))
	}
}

// Root returns the Merkle root over the leaves added so far, ZeroHash
// for an empty builder. It does not modify the builder; more leaves may
// be added afterwards.
func (b *MerkleBuilder) Root() Hash {
	if b.n == 0 {
		return ZeroHash
	}
	// Fold levels bottom-up. carry is the root of the trailing partial
	// subtree formed below the current level; a dangling (odd) stored
	// node absorbs it, and per the odd-duplication rule a dangling node
	// or carry without a partner pairs with itself.
	var carry Hash
	have := false
	for lvl, stored := range b.levels {
		odd := len(stored)%2 == 1
		switch {
		case odd && have:
			carry = merkleNode(stored[len(stored)-1], carry)
		case odd && lvl == len(b.levels)-1:
			// The top level always holds exactly one node; with no
			// carry pending it is the root itself.
			return stored[0]
		case odd:
			last := stored[len(stored)-1]
			carry = merkleNode(last, last)
			have = true
		case have:
			carry = merkleNode(carry, carry)
		}
	}
	return carry
}
