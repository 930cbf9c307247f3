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
			if slot.Committee != i || slot.Local != local {
				t.Fatalf("provider %d home = %+v, want committee %d local %d", k, slot, i, local)
			}
		}
	}
	for _, k := range []int{-1, 7} {
		if _, ok := p.Home(k); ok {
			t.Fatalf("Home(%d) resolved out of range", k)
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
