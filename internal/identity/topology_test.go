package identity

import (
	"errors"
	"testing"
	"testing/quick"

	"repchain/internal/crypto"
)

func TestTopologySpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    TopologySpec
		wantErr bool
	}{
		{"paper example r=8", TopologySpec{Providers: 16, Collectors: 8, Degree: 8}, false},
		{"square", TopologySpec{Providers: 4, Collectors: 4, Degree: 2}, false},
		{"degree one", TopologySpec{Providers: 6, Collectors: 3, Degree: 1}, false},
		{"zero providers", TopologySpec{Providers: 0, Collectors: 3, Degree: 1}, true},
		{"zero collectors", TopologySpec{Providers: 3, Collectors: 0, Degree: 1}, true},
		{"zero degree", TopologySpec{Providers: 3, Collectors: 3, Degree: 0}, true},
		{"degree exceeds collectors", TopologySpec{Providers: 3, Collectors: 3, Degree: 4}, true},
		{"non-integral collector degree", TopologySpec{Providers: 3, Collectors: 2, Degree: 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadTopology) {
				t.Fatalf("Validate() error = %v, want ErrBadTopology", err)
			}
		})
	}
}

func TestRegularTopologyDegrees(t *testing.T) {
	specs := []TopologySpec{
		{Providers: 16, Collectors: 8, Degree: 8},
		{Providers: 10, Collectors: 5, Degree: 3},
		{Providers: 7, Collectors: 7, Degree: 7},
		{Providers: 12, Collectors: 4, Degree: 2},
	}
	for _, spec := range specs {
		topo, err := NewRegularTopology(spec)
		if err != nil {
			t.Fatalf("NewRegularTopology(%+v) error = %v", spec, err)
		}
		s := spec.CollectorDegree()
		for k := 0; k < spec.Providers; k++ {
			if got := len(topo.CollectorsOf(k)); got != spec.Degree {
				t.Fatalf("provider %d degree = %d, want %d", k, got, spec.Degree)
			}
		}
		for c := 0; c < spec.Collectors; c++ {
			if got := len(topo.ProvidersOf(c)); got != s {
				t.Fatalf("collector %d degree = %d, want %d", c, got, s)
			}
		}
	}
}

func TestTopologyLinkedConsistent(t *testing.T) {
	topo, err := NewRegularTopology(TopologySpec{Providers: 9, Collectors: 3, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < topo.Providers(); k++ {
		linked := make(map[int]bool)
		for _, c := range topo.CollectorsOf(k) {
			linked[c] = true
		}
		for c := 0; c < topo.Collectors(); c++ {
			if topo.Linked(k, c) != linked[c] {
				t.Fatalf("Linked(%d,%d) inconsistent with CollectorsOf", k, c)
			}
		}
	}
}

func TestTopologyFromLinks(t *testing.T) {
	topo, err := NewTopologyFromLinks(3, 2, [][]int{{0, 1}, {0}, {1}})
	if err != nil {
		t.Fatalf("NewTopologyFromLinks() error = %v", err)
	}
	if !topo.Linked(0, 0) || !topo.Linked(0, 1) || !topo.Linked(1, 0) || topo.Linked(1, 1) {
		t.Fatal("links not reproduced")
	}
}

func TestTopologyFromLinksErrors(t *testing.T) {
	tests := []struct {
		name       string
		providers  int
		collectors int
		links      [][]int
	}{
		{"wrong provider count", 2, 2, [][]int{{0}}},
		{"collector out of range", 1, 2, [][]int{{2}}},
		{"negative collector", 1, 2, [][]int{{-1}}},
		{"duplicate link", 1, 2, [][]int{{0, 0}}},
		{"zero sizes", 0, 2, [][]int{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewTopologyFromLinks(tt.providers, tt.collectors, tt.links)
			if !errors.Is(err, ErrBadTopology) {
				t.Fatalf("error = %v, want ErrBadTopology", err)
			}
		})
	}
}

func TestQuickRegularTopologyHandshake(t *testing.T) {
	// Property: sum of provider degrees equals sum of collector degrees
	// (the handshake lemma, r·l = s·n) for any valid spec.
	f := func(l, n, r uint8) bool {
		spec := TopologySpec{
			Providers:  int(l%32) + 1,
			Collectors: int(n%16) + 1,
			Degree:     int(r%8) + 1,
		}
		if spec.Validate() != nil {
			return true // skip unrealizable specs
		}
		topo, err := NewRegularTopology(spec)
		if err != nil {
			return false
		}
		var left, right int
		for k := 0; k < topo.Providers(); k++ {
			left += len(topo.CollectorsOf(k))
		}
		for c := 0; c < topo.Collectors(); c++ {
			right += len(topo.ProvidersOf(c))
		}
		return left == right && left == spec.Providers*spec.Degree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAll(t *testing.T) {
	topo, err := NewRegularTopology(TopologySpec{Providers: 6, Collectors: 3, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	roster, err := NewRoster(topo, 4, make([]byte, crypto.SeedSize))
	if err != nil {
		t.Fatalf("NewRoster() error = %v", err)
	}
	if len(roster.Providers) != 6 || len(roster.Collectors) != 3 || len(roster.Governors) != 4 {
		t.Fatalf("roster sizes wrong: %d/%d/%d", len(roster.Providers), len(roster.Collectors), len(roster.Governors))
	}
	// Every member resolves by ID under its role and index, and under no
	// other role.
	for role, ms := range [][]Member{RoleProvider: roster.Providers, RoleCollector: roster.Collectors, RoleGovernor: roster.Governors} {
		role := Role(role)
		for idx, want := range ms {
			got, ok := roster.Member(MakeNodeID(role, idx), role)
			if !ok || got.ID != want.ID || got.Index != idx || !got.PublicKey.Equal(want.PublicKey) {
				t.Fatalf("Member(%s %d) = %+v, %v", role, idx, got, ok)
			}
			if _, ok := roster.Member(want.ID, role%RoleGovernor+1); ok {
				t.Fatalf("%s resolved under role %s", want.ID, role%RoleGovernor+1)
			}
		}
	}
	// Every topological link is a roster link.
	for k := 0; k < topo.Providers(); k++ {
		for _, c := range topo.CollectorsOf(k) {
			if !roster.Linked(k, c) {
				t.Fatalf("link %d-%d missing in roster", k, c)
			}
		}
	}
	// Signing keys must match the public keys.
	msg := []byte("probe")
	sig := roster.Governors[0].PrivateKey.Sign(msg)
	if err := roster.Governors[0].PublicKey.Verify(msg, sig); err != nil {
		t.Fatalf("roster key mismatch: %v", err)
	}
}

func TestRegisterAllDeterministic(t *testing.T) {
	topo, err := NewRegularTopology(TopologySpec{Providers: 2, Collectors: 2, Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, crypto.SeedSize)
	seed[5] = 7
	r1, err := NewRoster(topo, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRoster(topo, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Providers[0].PublicKey.Equal(r2.Providers[0].PublicKey) {
		t.Fatal("same seed produced different member keys")
	}
	r3, err := NewRoster(topo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Providers[0].PublicKey.Equal(r3.Providers[0].PublicKey) {
		t.Fatal("nil seed reproduced the seeded key")
	}
}

func TestRegisterAllRejectsNoGovernors(t *testing.T) {
	topo, err := NewRegularTopology(TopologySpec{Providers: 2, Collectors: 2, Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRoster(topo, 0, nil); !errors.Is(err, ErrBadRoster) {
		t.Fatalf("NewRoster() error = %v, want ErrBadRoster", err)
	}
}
