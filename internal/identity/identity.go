// Package identity is the Identity Manager (IM) of the paper's §3.1,
// which records "the members of the chain as well as their roles" and
// provides the credentials they authenticate with. In a permissioned
// alliance that record is the deployment: a Roster lists every member by
// role in index order with its Ed25519 keys, plus the bipartite
// provider–collector topology (each provider linked with r collectors,
// each collector with s providers, r·l = s·n) that the paper's verify()
// checks an upload's provider against.
package identity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repchain/internal/crypto"
)

// Role classifies a node in the three-tier hierarchy.
type Role int

// Roles, one per tier of the paper's hierarchical model.
const (
	// RoleProvider offers signed transactions to collectors.
	RoleProvider Role = iota + 1
	// RoleCollector labels and uploads transactions to governors.
	RoleCollector
	// RoleGovernor screens transactions, maintains the ledger, and
	// participates in leader election.
	RoleGovernor
)

var roleNames = [...]string{RoleProvider: "provider", RoleCollector: "collector", RoleGovernor: "governor"}

// String returns the lowercase role name.
func (r Role) String() string {
	if !r.Valid() {
		return fmt.Sprintf("role(%d)", int(r))
	}
	return roleNames[r]
}

// Valid reports whether r is a known role.
func (r Role) Valid() bool {
	return r >= RoleProvider && r <= RoleGovernor
}

// RoleNamed returns the role whose String is name; any other name gives
// an invalid role.
func RoleNamed(name string) Role { return Role(slices.Index(roleNames[:], name)) }

// NodeID names a member, e.g. "provider/3": MakeNodeID of its role and
// index, unique chain-wide.
type NodeID string

// MakeNodeID builds the canonical identifier for the index-th node of a
// role.
func MakeNodeID(role Role, index int) NodeID {
	return NodeID(fmt.Sprintf("%s/%d", role, index))
}

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadTopology reports an inconsistent topology specification.
	ErrBadTopology = errors.New("identity: invalid topology")
	// ErrBadRoster reports a member list that is not a roster: an
	// unknown role, an ID other than MakeNodeID(role, index), per-role
	// indices other than 0…k−1, a missing key, or no governor.
	ErrBadRoster = errors.New("identity: invalid roster")
)

// Member is one node of the roster: its credential and signing key.
type Member struct {
	// ID is MakeNodeID(Role, Index).
	ID NodeID
	// Role is the member's tier.
	Role Role
	// Index is the member's position within its role.
	Index int
	// PublicKey is the member's Ed25519 verifying key.
	PublicKey crypto.PublicKey
	// PrivateKey signs on behalf of the member; zero when this process
	// does not hold it.
	PrivateKey crypto.PrivateKey
}

// Roster is the full membership of a deployment: the members of each
// role in index order and the provider–collector topology. It is
// immutable after construction; callers must not modify its slices.
type Roster struct {
	Providers  []Member
	Collectors []Member
	Governors  []Member
	Topology   *Topology

	byID map[NodeID]Member
}

// NewRoster builds the roster of topo's providers and collectors plus
// governors governors. Member keys are derived from seed in the order
// providers, collectors, governors, so one seed reproduces every
// identity of a deployment; a nil seed draws random keys.
func NewRoster(topo *Topology, governors int, seed []byte) (*Roster, error) {
	var members []Member
	counts := [...]int{topo.Providers(), topo.Collectors(), governors}
	for i, role := range [...]Role{RoleProvider, RoleCollector, RoleGovernor} {
		for idx := 0; idx < counts[i]; idx++ {
			pub, priv, err := memberKey(seed, len(members))
			if err != nil {
				return nil, fmt.Errorf("key for %s %d: %w", role, idx, err)
			}
			members = append(members, Member{ID: MakeNodeID(role, idx), Role: role, Index: idx, PublicKey: pub, PrivateKey: priv})
		}
	}
	return RosterOf(topo, members)
}

// memberKey derives the n-th member's key from seed, or draws a random
// one for a nil seed.
func memberKey(seed []byte, n int) (crypto.PublicKey, crypto.PrivateKey, error) {
	if seed == nil {
		return crypto.GenerateKey(nil)
	}
	var ctr [8]byte
	binary.LittleEndian.PutUint64(ctr[:], uint64(n))
	derived := crypto.SumParts(seed, ctr[:])
	return crypto.KeyFromSeed(derived[:])
}

// RosterOf indexes members, in any order, over topo. It checks what
// every lookup relies on: each ID is MakeNodeID(Role, Index) and has a
// public key, each role's indices are exactly 0…k−1, the provider and
// collector counts are topo's, and there is a governor.
func RosterOf(topo *Topology, members []Member) (*Roster, error) {
	r := &Roster{Topology: topo, byID: make(map[NodeID]Member, len(members))}
	for _, m := range members {
		_, dup := r.byID[m.ID]
		if dup || !m.Role.Valid() || m.ID != MakeNodeID(m.Role, m.Index) || m.PublicKey.IsZero() {
			return nil, fmt.Errorf("member %q as %s %d: %w", m.ID, m.Role, m.Index, ErrBadRoster)
		}
		r.byID[m.ID] = m
	}
	lists := [...]*[]Member{RoleProvider: &r.Providers, RoleCollector: &r.Collectors, RoleGovernor: &r.Governors}
	for role := RoleProvider; role <= RoleGovernor; role++ {
		for m, ok := r.byID[MakeNodeID(role, 0)]; ok; m, ok = r.byID[MakeNodeID(role, m.Index+1)] {
			*lists[role] = append(*lists[role], m)
		}
	}
	if len(r.Providers)+len(r.Collectors)+len(r.Governors) != len(members) {
		return nil, fmt.Errorf("per-role indices are not 0…k−1: %w", ErrBadRoster)
	}
	if len(r.Providers) != topo.Providers() || len(r.Collectors) != topo.Collectors() || len(r.Governors) == 0 {
		return nil, fmt.Errorf("%d providers, %d collectors and %d governors over a %d×%d topology: %w",
			len(r.Providers), len(r.Collectors), len(r.Governors), topo.Providers(), topo.Collectors(), ErrBadRoster)
	}
	return r, nil
}

// Member returns the member id names if it holds role; ok is false for
// an ID outside the roster or a member of another role.
func (r *Roster) Member(id NodeID, role Role) (Member, bool) {
	m, ok := r.byID[id]
	if !ok || m.Role != role {
		return Member{}, false
	}
	return m, true
}

// Linked reports whether provider k is linked with collector c, the
// check the paper's verify() applies to collector uploads.
func (r *Roster) Linked(k, c int) bool { return r.Topology.Linked(k, c) }

// IDs returns the IDs of members, in order.
func IDs(members []Member) []NodeID {
	out := make([]NodeID, len(members))
	for i, m := range members {
		out[i] = m.ID
	}
	return out
}

// Manager, NewManagerFromSeed and RegisterAll are the benchmark
// harness's seam onto NewRoster, kept under the names it calls: the
// Manager holds nothing.
type Manager struct{}

// NewManagerFromSeed returns an empty Manager (benchmark seam).
func NewManagerFromSeed([]byte) (*Manager, error) { return &Manager{}, nil }

// RegisterAll is NewRoster (benchmark seam).
func RegisterAll(_ *Manager, topo *Topology, governors int, seed []byte) (*Roster, error) {
	return NewRoster(topo, governors, seed)
}
