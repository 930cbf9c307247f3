package crypto

import (
	"fmt"
	"testing"
	"testing/quick"
)

func makeLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("tx-%d", i))
	}
	return leaves
}

func TestMerkleRootEmpty(t *testing.T) {
	if MerkleRoot(nil) != ZeroHash {
		t.Fatal("empty tree root should be ZeroHash")
	}
}

func TestMerkleRootSingle(t *testing.T) {
	root := MerkleRoot([][]byte{[]byte("only")})
	if root == ZeroHash {
		t.Fatal("single leaf root should be nonzero")
	}
	if root == Sum([]byte("only")) {
		t.Fatal("leaf hashing must be domain separated from plain Sum")
	}
}

func TestMerkleRootOrderSensitive(t *testing.T) {
	a := MerkleRoot([][]byte{[]byte("x"), []byte("y")})
	b := MerkleRoot([][]byte{[]byte("y"), []byte("x")})
	if a == b {
		t.Fatal("reordering leaves should change the root")
	}
}

func TestMerkleRootContentSensitive(t *testing.T) {
	a := MerkleRoot(makeLeaves(5))
	leaves := makeLeaves(5)
	leaves[3] = []byte("tampered")
	if a == MerkleRoot(leaves) {
		t.Fatal("changing a leaf should change the root")
	}
}

// builderRoot feeds leaves through a fresh MerkleBuilder.
func builderRoot(leaves [][]byte) Hash {
	b := NewMerkleBuilder()
	for _, l := range leaves {
		b.Add(l)
	}
	return b.Root()
}

// TestMerkleProofAllSizesAllIndices checks what any inclusion proof
// against a block's root rests on: at every tree size, the root binds
// the leaf at every index, and the incremental builder agrees with
// MerkleRoot on each tampered list too.
func TestMerkleProofAllSizesAllIndices(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			leaves := makeLeaves(n)
			root := MerkleRoot(leaves)
			for i := 0; i < n; i++ {
				tampered := makeLeaves(n)
				tampered[i] = []byte("not-a-member")
				got := MerkleRoot(tampered)
				if got == root {
					t.Fatalf("replacing leaf %d of %d left the root unchanged", i, n)
				}
				if b := builderRoot(tampered); b != got {
					t.Fatalf("leaf %d of %d replaced: builder root %s, MerkleRoot %s", i, n, b.Short(), got.Short())
				}
			}
		})
	}
}

// TestMerkleProofRejectsWrongLeaf: a non-member substituted for a
// member yields a different root.
func TestMerkleProofRejectsWrongLeaf(t *testing.T) {
	leaves := makeLeaves(8)
	root := MerkleRoot(leaves)
	leaves[2] = []byte("not-a-member")
	if MerkleRoot(leaves) == root {
		t.Fatal("a non-member leaf reproduced the root")
	}
}

// TestMerkleProofRejectsTamperedPath checks the leaf/node domain
// separation: a leaf whose bytes are two child hashes — an interior
// node spliced in as a leaf — does not reproduce the parent's root.
func TestMerkleProofRejectsTamperedPath(t *testing.T) {
	leaves := makeLeaves(2)
	root := MerkleRoot(leaves)
	l, r := merkleLeaf(leaves[0]), merkleLeaf(leaves[1])
	spliced := append(l[:], r[:]...)
	if MerkleRoot([][]byte{spliced}) == root {
		t.Fatal("an interior node spliced in as a leaf reproduced the root")
	}
}

// TestQuickMerkleProofs: on random leaf lists the builder reproduces
// MerkleRoot, and changing the picked leaf changes the root.
func TestQuickMerkleProofs(t *testing.T) {
	f := func(raw [][]byte, pick uint8) bool {
		if len(raw) == 0 {
			return true
		}
		root := MerkleRoot(raw)
		if builderRoot(raw) != root {
			return false
		}
		idx := int(pick) % len(raw)
		raw[idx] = append(append([]byte(nil), raw[idx]...), 0xff)
		return MerkleRoot(raw) != root
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerkleRoot1024(b *testing.B) {
	leaves := makeLeaves(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MerkleRoot(leaves)
	}
}
