package identity

import (
	"errors"
	"testing"
)

func TestModuloPartitionBalanced(t *testing.T) {
	p, err := NewPartition(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Committees() != 4 {
		t.Fatalf("committees = %d, want 4", p.Committees())
	}
	for i := 0; i < 4; i++ {
		ms := p.Members(i)
		if len(ms) != 2 {
			t.Fatalf("committee %d has %d members, want 2", i, len(ms))
		}
		want := []int{i, i + 4}
		for j, k := range ms {
			if k != want[j] {
				t.Fatalf("committee %d members = %v, want %v", i, ms, want)
			}
		}
	}
}

func TestPartitionHomeGlobalRoundTrip(t *testing.T) {
	p, err := NewPartition(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		slot, ok := p.Home(k)
		if !ok {
			t.Fatalf("Home(%d) not found", k)
		}
		if slot.Committee != k%3 {
			t.Fatalf("Home(%d).Committee = %d, want %d", k, slot.Committee, k%3)
		}
		back, ok := p.Global(slot.Committee, slot.Local)
		if !ok || back != k {
			t.Fatalf("Global(%d, %d) = %d, %v; want %d", slot.Committee, slot.Local, back, ok, k)
		}
	}
	if _, ok := p.Home(-1); ok {
		t.Fatal("Home(-1) should not resolve")
	}
	if _, ok := p.Home(10); ok {
		t.Fatal("Home(10) should not resolve")
	}
	if _, ok := p.Global(3, 0); ok {
		t.Fatal("Global(3, 0) should not resolve")
	}
	if _, ok := p.Global(0, 99); ok {
		t.Fatal("Global(0, 99) should not resolve")
	}
}

func TestPartitionLocalIndicesAscending(t *testing.T) {
	// Local indices follow ascending global index within each
	// committee, whatever the stride between members.
	p, err := NewPartition(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ms := p.Members(i)
		for j := 1; j < len(ms); j++ {
			if ms[j] <= ms[j-1] {
				t.Fatalf("committee %d members not ascending: %v", i, ms)
			}
		}
		for local, k := range ms {
			slot, _ := p.Home(k)
			if slot.Local != local {
				t.Fatalf("provider %d local = %d, want %d", k, slot.Local, local)
			}
		}
	}
}

func TestPartitionRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name       string
		providers  int
		committees int
	}{
		{"no providers", 0, 1},
		{"no committees", 4, 0},
		{"negative", -4, 2},
		{"empty committee", 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPartition(tc.providers, tc.committees); !errors.Is(err, ErrBadTopology) {
				t.Fatalf("err = %v, want ErrBadTopology", err)
			}
		})
	}
}
