package crypto

import (
	"fmt"
	"testing"
)

func TestMerkleBuilderMatchesMerkleRoot(t *testing.T) {
	for n := 0; n <= 65; n++ {
		leaves := makeLeaves(n)
		b := NewMerkleBuilder(n)
		for _, l := range leaves {
			b.Add(l)
		}
		if b.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, b.Len())
		}
		if got, want := b.Root(), MerkleRoot(leaves); got != want {
			t.Fatalf("n=%d: builder root %s, MerkleRoot %s", n, got.Short(), want.Short())
		}
	}
}

func TestMerkleBuilderRootIsNonDestructive(t *testing.T) {
	leaves := makeLeaves(13)
	b := NewMerkleBuilder(0)
	for i, l := range leaves {
		b.Add(l)
		if got, want := b.Root(), MerkleRoot(leaves[:i+1]); got != want {
			t.Fatalf("after %d leaves: root %s, want %s", i+1, got.Short(), want.Short())
		}
	}
}

func TestMerkleBuilderResetReuse(t *testing.T) {
	b := NewMerkleBuilder(4)
	for round := 0; round < 4; round++ {
		n := 1 + round*7
		leaves := makeLeaves(n)
		b.Reset()
		for _, l := range leaves {
			b.Add(l)
		}
		if got, want := b.Root(), MerkleRoot(leaves); got != want {
			t.Fatalf("round %d (n=%d): root %s, want %s", round, n, got.Short(), want.Short())
		}
	}
	b.Reset()
	if got := b.Root(); got != ZeroHash {
		t.Fatalf("reset builder root %s, want zero", got.Short())
	}
}

func TestMerkleBuilderAddNoAllocsSteadyState(t *testing.T) {
	b := NewMerkleBuilder(0)
	leaf := []byte("steady-state leaf payload, fixed size")
	// Warm the level and scratch storage well past what the measured
	// runs will need.
	for i := 0; i < 2048; i++ {
		b.Add(leaf)
	}
	b.Reset()
	allocs := testing.AllocsPerRun(200, func() {
		if b.Len() >= 2048 {
			b.Reset()
		}
		b.Add(leaf)
	})
	if allocs != 0 {
		t.Fatalf("MerkleBuilder.Add allocates %.1f per op in steady state, want 0", allocs)
	}
}

func BenchmarkMerkleIncremental(b *testing.B) {
	leaves := makeLeaves(512)
	mb := NewMerkleBuilder(512)
	var root Hash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.Reset()
		for _, l := range leaves {
			mb.Add(l)
		}
		root = mb.Root()
	}
	_ = fmt.Sprintf("%v", root)
}
