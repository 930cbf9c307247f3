package identity

import (
	"errors"
	"testing"

	"repchain/internal/crypto"
)

// testRoster builds a seeded roster over a regular topology.
func testRoster(t *testing.T, spec TopologySpec, governors int) *Roster {
	t.Helper()
	topo, err := NewRegularTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, crypto.SeedSize)
	seed[0] = 0x1A
	r, err := NewRoster(topo, governors, seed)
	if err != nil {
		t.Fatalf("NewRoster() error = %v", err)
	}
	return r
}

// members flattens a roster back into the member list RosterOf takes.
func members(r *Roster) []Member {
	var out []Member
	out = append(out, r.Providers...)
	out = append(out, r.Collectors...)
	return append(out, r.Governors...)
}

func TestRoleString(t *testing.T) {
	tests := []struct {
		role Role
		want string
	}{
		{RoleProvider, "provider"},
		{RoleCollector, "collector"},
		{RoleGovernor, "governor"},
		{Role(0), "role(0)"},
		{Role(9), "role(9)"},
	}
	for _, tt := range tests {
		if got := tt.role.String(); got != tt.want {
			t.Errorf("Role(%d).String() = %q, want %q", tt.role, got, tt.want)
		}
		if got := RoleNamed(tt.want); (got == tt.role) != (tt.role >= RoleProvider && tt.role <= RoleGovernor) {
			t.Errorf("RoleNamed(%q) = %v", tt.want, got)
		}
	}
}

func TestRegisterAndLookup(t *testing.T) {
	r := testRoster(t, TopologySpec{Providers: 2, Collectors: 2, Degree: 1}, 1)
	want := r.Collectors[1]
	got, ok := r.Member(want.ID, RoleCollector)
	if !ok {
		t.Fatalf("Member(%q) absent", want.ID)
	}
	if got.ID != want.ID || got.Role != RoleCollector || got.Index != 1 || !got.PublicKey.Equal(want.PublicKey) {
		t.Fatalf("Member(%q) = %+v, want %+v", want.ID, got, want)
	}
	if _, ok := r.Member("collector/7", RoleCollector); ok {
		t.Fatal("Member() found an ID outside the roster")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := testRoster(t, TopologySpec{Providers: 2, Collectors: 2, Degree: 1}, 1)
	ms := append(members(r), r.Providers[0])
	if _, err := RosterOf(r.Topology, ms); !errors.Is(err, ErrBadRoster) {
		t.Fatalf("RosterOf(duplicate) error = %v, want ErrBadRoster", err)
	}
}

func TestRegisterRejectsInvalidRole(t *testing.T) {
	r := testRoster(t, TopologySpec{Providers: 2, Collectors: 2, Degree: 1}, 1)
	ms := members(r)
	ms[len(ms)-1].Role = Role(42)
	if _, err := RosterOf(r.Topology, ms); !errors.Is(err, ErrBadRoster) {
		t.Fatalf("RosterOf(invalid role) error = %v, want ErrBadRoster", err)
	}
}

func TestRegisterRejectsZeroKey(t *testing.T) {
	r := testRoster(t, TopologySpec{Providers: 2, Collectors: 2, Degree: 1}, 1)
	ms := members(r)
	ms[0].PublicKey = crypto.PublicKey{}
	if _, err := RosterOf(r.Topology, ms); !errors.Is(err, ErrBadRoster) {
		t.Fatalf("RosterOf(zero key) error = %v, want ErrBadRoster", err)
	}
}

// TestRosterOfRejectsBadIndices covers the index rules every lookup
// relies on: the ID must name the role and index, and each role's
// indices must be exactly 0…k−1.
func TestRosterOfRejectsBadIndices(t *testing.T) {
	tests := []struct {
		name   string
		mutate func([]Member)
	}{
		{"id not role/index", func(ms []Member) { ms[0].ID = "provider/9" }},
		{"gap", func(ms []Member) { ms[0].Index, ms[0].ID = 2, "provider/2" }},
		{"negative", func(ms []Member) { ms[0].Index, ms[0].ID = -1, "provider/-1" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := testRoster(t, TopologySpec{Providers: 2, Collectors: 2, Degree: 1}, 1)
			ms := members(r)
			tt.mutate(ms)
			if _, err := RosterOf(r.Topology, ms); !errors.Is(err, ErrBadRoster) {
				t.Fatalf("RosterOf() error = %v, want ErrBadRoster", err)
			}
		})
	}
}

// TestMembersSorted: a role's members are listed by index, whatever the
// order they were given in — provider/10 after provider/9, not between
// provider/1 and provider/2 as a sort by ID would put it.
func TestMembersSorted(t *testing.T) {
	r := testRoster(t, TopologySpec{Providers: 11, Collectors: 11, Degree: 1}, 1)
	ms := members(r)
	for i, j := 0, len(ms)-1; i < j; i, j = i+1, j-1 {
		ms[i], ms[j] = ms[j], ms[i]
	}
	got, err := RosterOf(r.Topology, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Providers) != 11 || len(got.Collectors) != 11 || len(got.Governors) != 1 {
		t.Fatalf("roster sizes %d/%d/%d", len(got.Providers), len(got.Collectors), len(got.Governors))
	}
	for k, m := range got.Providers {
		if m.Index != k || m.ID != MakeNodeID(RoleProvider, k) {
			t.Fatalf("Providers[%d] = %s (index %d)", k, m.ID, m.Index)
		}
	}
}

func TestLinkAndLinked(t *testing.T) {
	topo, err := NewTopologyFromLinks(2, 2, [][]int{{0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRoster(topo, 1, make([]byte, crypto.SeedSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		k, c int
		want bool
	}{{0, 0, true}, {0, 1, false}, {1, 0, true}, {1, 1, true}, {2, 0, false}, {-1, 0, false}, {0, 5, false}} {
		if got := r.Linked(tt.k, tt.c); got != tt.want {
			t.Errorf("Linked(%d, %d) = %v, want %v", tt.k, tt.c, got, tt.want)
		}
	}
}

// TestLinkRoleEnforcement: a lookup resolves a member only under its own
// role, so a provider's ID never yields a collector or governor.
func TestLinkRoleEnforcement(t *testing.T) {
	r := testRoster(t, TopologySpec{Providers: 2, Collectors: 2, Degree: 1}, 1)
	p, g := r.Providers[0], r.Governors[0]
	for _, role := range []Role{RoleCollector, RoleGovernor} {
		if _, ok := r.Member(p.ID, role); ok {
			t.Errorf("provider %s resolved as a %s", p.ID, role)
		}
	}
	if _, ok := r.Member(g.ID, RoleProvider); ok {
		t.Errorf("governor %s resolved as a provider", g.ID)
	}
}
