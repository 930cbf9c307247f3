package mempool

import (
	"errors"
	"math"
	"testing"
)

func TestDrainShardSeqOrder(t *testing.T) {
	p := New[int](4, 0)
	// Interleave keys so arrival order differs from (shard, seq) order.
	for i, key := range []int{3, 0, 1, 0, 2, 3, 1, 0} {
		if _, err := p.Add(key, i); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Drain(0)
	// shard 0 gets arrivals 1, 3, 7; shard 1 gets 2, 6; shard 2 gets 4;
	// shard 3 gets 0, 5.
	want := []int{1, 3, 7, 2, 6, 4, 0, 5}
	if len(got) != len(want) {
		t.Fatalf("Drain returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain order %v, want %v", got, want)
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
	// (shard, seq): shard 0 holds 0,2,4; shard 1 holds 1,3,5.
	want := []int{0, 2, 4, 1}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("capped drain %v, want %v", first, want)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", p.Len())
	}
	second := p.Drain(0)
	if second[0] != 3 || second[1] != 5 {
		t.Fatalf("second drain %v, want [3 5]", second)
	}
}

func TestBoundedShardRejects(t *testing.T) {
	p := New[string](2, 2)
	for i := 0; i < 2; i++ {
		if _, err := p.Add(0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Room(0); got != 0 {
		t.Fatalf("Room on a full shard = %d, want 0", got)
	}
	if _, err := p.Add(0, "overflow"); !errors.Is(err, ErrShardFull) {
		t.Fatalf("Add to full shard = %v, want ErrShardFull", err)
	}
	// The sibling shard is unaffected.
	if got := p.Room(1); got != 2 {
		t.Fatalf("empty sibling shard Room = %d, want 2", got)
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
}

func TestEvictOldest(t *testing.T) {
	p := New[int](2, 2)
	for _, v := range []int{10, 20} {
		if _, err := p.Add(0, v); err != nil {
			t.Fatal(err)
		}
	}
	old, ok := p.EvictOldest(0)
	if !ok || old != 10 {
		t.Fatalf("EvictOldest = (%d, %v), want (10, true)", old, ok)
	}
	if _, err := p.Add(0, 30); err != nil {
		t.Fatalf("Add after evict: %v", err)
	}
	got := p.Drain(0)
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("Drain = %v, want [20 30]", got)
	}
	if _, ok := p.EvictOldest(0); ok {
		t.Fatal("EvictOldest on empty shard reported true")
	}
}

func TestNegativeKeysAndDegenerateConfig(t *testing.T) {
	p := New[int](0, -1) // clamps to 1 unbounded shard
	if p.Shards() != 1 || p.Cap() != 0 {
		t.Fatalf("Shards() = %d, Cap() = %d, want 1, 0", p.Shards(), p.Cap())
	}
	for i, key := range []int{-3, 5, -1} {
		if _, err := p.Add(key, i); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Drain(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("single-shard drain %v, want FIFO", got)
		}
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
