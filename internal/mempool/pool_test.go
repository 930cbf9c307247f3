package mempool

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// TestDrainArrivalOrder: whatever the keys, entries come out in the
// order they were added.
func TestDrainArrivalOrder(t *testing.T) {
	p := New[int](4, 0)
	for i, key := range []int{3, 0, 1, 0, 2, 3, 1, 0} {
		if _, err := p.Add(key, i); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Drain(0)
	if len(got) != 8 {
		t.Fatalf("Drain returned %d entries, want 8", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("Drain order %v, want arrival order", got)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len() = %d after full drain", p.Len())
	}
}

func TestDrainCapLeavesTail(t *testing.T) {
	p := New[int](2, 0)
	for i := 0; i < 6; i++ {
		if _, err := p.Add(i%2, i); err != nil {
			t.Fatal(err)
		}
	}
	first := p.Drain(4)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("capped drain %v, want %v", first, want)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", p.Len())
	}
	second := p.Drain(0)
	if second[0] != 4 || second[1] != 5 {
		t.Fatalf("second drain %v, want [4 5]", second)
	}
}

// TestAppendDrainReusesScratch: AppendDrain appends to the caller's
// slice, frees the drained keys' room, and a second round drained into
// the first's emptied slice allocates nothing.
func TestAppendDrainReusesScratch(t *testing.T) {
	p := New[int](2, 3)
	fill := func() {
		for i := 0; i < 4; i++ {
			if _, err := p.Add(i%2, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	got := p.AppendDrain([]int{-1}, 3)
	if want := []int{-1, 0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("AppendDrain = %v, want %v", got, want)
	}
	if p.Room(0) != 3 || p.Room(1) != 2 {
		t.Fatalf("room after drain = %d, %d, want 3, 2", p.Room(0), p.Room(1))
	}
	scratch := p.AppendDrain(got[:0], 0)
	if allocs := testing.AllocsPerRun(10, func() {
		fill()
		scratch = p.AppendDrain(scratch[:0], 0)
	}); allocs != 0 || len(scratch) != 4 {
		t.Fatalf("draining %d into scratch made %v allocations, want 4 and 0", len(scratch), allocs)
	}
}

func TestBoundedKeyRejects(t *testing.T) {
	p := New[string](2, 2)
	for i := 0; i < 2; i++ {
		if _, err := p.Add(0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Room(0); got != 0 {
		t.Fatalf("Room on a full key = %d, want 0", got)
	}
	if _, err := p.Add(0, "overflow"); !errors.Is(err, ErrFull) {
		t.Fatalf("Add to full key = %v, want ErrFull", err)
	}
	// Another key is unaffected.
	if got := p.Room(1); got != 2 {
		t.Fatalf("empty key Room = %d, want 2", got)
	}
	if _, err := p.Add(1, "ok"); err != nil {
		t.Fatal(err)
	}
	if got := p.Room(1); got != 1 {
		t.Fatalf("Room after one Add = %d, want 1", got)
	}
	if got := New[string](2, 0).Room(0); got != math.MaxInt {
		t.Fatalf("unbounded Room = %d, want math.MaxInt", got)
	}
	if p.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", p.Len())
	}
	// Draining frees the drained entries' keys.
	p.Drain(1)
	if got := p.Room(0); got != 1 {
		t.Fatalf("Room after draining one entry = %d, want 1", got)
	}
}

func TestEvictOldest(t *testing.T) {
	p := New[int](2, 2)
	for i, v := range []int{10, 11, 20, 21} {
		if _, err := p.Add(i%2, v); err != nil {
			t.Fatal(err)
		}
	}
	// Key 1's oldest is 11, queued behind key 0's 10.
	old, ok := p.EvictOldest(1)
	if !ok || old != 11 {
		t.Fatalf("EvictOldest = (%d, %v), want (11, true)", old, ok)
	}
	if _, err := p.Add(1, 30); err != nil {
		t.Fatalf("Add after evict: %v", err)
	}
	got := p.Drain(0)
	if len(got) != 4 || got[0] != 10 || got[1] != 20 || got[2] != 21 || got[3] != 30 {
		t.Fatalf("Drain = %v, want [10 20 21 30]", got)
	}
	if _, ok := p.EvictOldest(0); ok {
		t.Fatal("EvictOldest on an empty pool reported true")
	}
}

func TestNegativeKeysAndDegenerateConfig(t *testing.T) {
	p := New[int](0, -1) // no keys declared, negative cap: unbounded
	if p.Cap() != 0 {
		t.Fatalf("Cap() = %d, want 0", p.Cap())
	}
	for i, key := range []int{-3, 5, -1} {
		if _, err := p.Add(key, i); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := p.EvictOldest(-1); !ok || v != 2 {
		t.Fatalf("EvictOldest(-1) = (%d, %v), want (2, true)", v, ok)
	}
	got := p.Drain(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("drain %v, want FIFO [0 1]", got)
	}
}

func TestSeqMonotone(t *testing.T) {
	p := New[int](3, 0)
	var last uint64
	for i := 0; i < 9; i++ {
		seq, err := p.Add(i, i)
		if err != nil {
			t.Fatal(err)
		}
		if seq <= last {
			t.Fatalf("seq %d after %d: not monotone", seq, last)
		}
		last = seq
	}
	p.Drain(4)
	seq, err := p.Add(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if seq <= last {
		t.Fatal("seq restarted after drain")
	}
}
