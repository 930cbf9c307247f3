// Package identity implements the Identity Manager (IM) of the paper's
// §3.1: the component "responsible for recording the members of the
// chain as well as their roles" and "in charge of providing nodes
// credentials that are used for authenticating and authorizing".
//
// The IM plays the Certificate Authority role of a standard PKI: it
// holds a root signing key and issues role certificates binding a node
// identifier to a public key and a role. Every protocol message is
// verified against a certificate chain ending at the IM root.
//
// The package also records the bipartite provider–collector topology
// (each provider is linked with r collectors, each collector with s
// providers, r·l = s·n), because the paper's verify() primitive rejects
// a collector upload whose inner provider signature comes from a
// provider the collector is not linked with.
package identity

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repchain/internal/codec"
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

// String returns the lowercase role name.
func (r Role) String() string {
	switch r {
	case RoleProvider:
		return "provider"
	case RoleCollector:
		return "collector"
	case RoleGovernor:
		return "governor"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Valid reports whether r is a known role.
func (r Role) Valid() bool {
	return r == RoleProvider || r == RoleCollector || r == RoleGovernor
}

// NodeID names a registered node, e.g. "provider/3". IDs are assigned
// by the IM at registration and are unique chain-wide.
type NodeID string

// MakeNodeID builds the canonical identifier for the index-th node of a
// role.
func MakeNodeID(role Role, index int) NodeID {
	return NodeID(fmt.Sprintf("%s/%d", role, index))
}

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrUnknownNode reports a lookup for an unregistered node.
	ErrUnknownNode = errors.New("identity: unknown node")
	// ErrDuplicateNode reports a registration under an existing ID.
	ErrDuplicateNode = errors.New("identity: node already registered")
	// ErrRevoked reports use of a revoked credential.
	ErrRevoked = errors.New("identity: credential revoked")
	// ErrBadCertificate reports a certificate that fails verification.
	ErrBadCertificate = errors.New("identity: bad certificate")
	// ErrRoleMismatch reports a node acting outside its certified role.
	ErrRoleMismatch = errors.New("identity: role mismatch")
	// ErrNotLinked reports a provider–collector pair with no link in
	// the registered topology.
	ErrNotLinked = errors.New("identity: provider and collector not linked")
	// ErrBadTopology reports an inconsistent topology specification.
	ErrBadTopology = errors.New("identity: invalid topology")
)

// Certificate binds a node ID and role to a public key, signed by the
// IM root key. It is the credential of §3.1.
type Certificate struct {
	// ID is the subject node.
	ID NodeID
	// Role is the subject's tier.
	Role Role
	// PublicKey is the subject's Ed25519 verifying key.
	PublicKey crypto.PublicKey
	// Signature is the IM root signature over the canonical encoding
	// of (ID, Role, PublicKey).
	Signature []byte
}

// signingBytes returns the canonical byte string the IM signs.
func (c Certificate) signingBytes() []byte {
	e := codec.NewEncoder(64)
	e.PutString("repchain/cert/v1")
	e.PutString(string(c.ID))
	e.PutInt(int(c.Role))
	e.PutBytes(c.PublicKey.Bytes())
	return e.Bytes()
}

// Manager is the Identity Manager. It is safe for concurrent use.
type Manager struct {
	mu      sync.RWMutex
	rootPub crypto.PublicKey
	rootKey crypto.PrivateKey

	nodes   map[NodeID]*record
	byRole  map[Role][]NodeID
	links   map[NodeID]map[NodeID]bool // provider -> set of collectors
	rlinks  map[NodeID]map[NodeID]bool // collector -> set of providers
	revoked map[NodeID]bool
}

type record struct {
	cert Certificate
}

// NewManager creates an IM with a fresh root key. A nil rng uses the
// cryptographic source.
func NewManager() (*Manager, error) {
	pub, priv, err := crypto.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("identity manager root key: %w", err)
	}
	return newManagerWithKey(pub, priv), nil
}

// NewManagerFromSeed creates an IM with a deterministic root key for
// reproducible simulations.
func NewManagerFromSeed(seed []byte) (*Manager, error) {
	pub, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		return nil, fmt.Errorf("identity manager root key: %w", err)
	}
	return newManagerWithKey(pub, priv), nil
}

func newManagerWithKey(pub crypto.PublicKey, priv crypto.PrivateKey) *Manager {
	return &Manager{
		rootPub: pub,
		rootKey: priv,
		nodes:   make(map[NodeID]*record),
		byRole:  make(map[Role][]NodeID),
		links:   make(map[NodeID]map[NodeID]bool),
		rlinks:  make(map[NodeID]map[NodeID]bool),
		revoked: make(map[NodeID]bool),
	}
}

// RootPublicKey returns the IM's root verifying key. Nodes embed it to
// verify certificates offline.
func (m *Manager) RootPublicKey() crypto.PublicKey {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rootPub
}

// Register issues a certificate binding id to pub under role. It
// returns ErrDuplicateNode if id is taken.
func (m *Manager) Register(id NodeID, role Role, pub crypto.PublicKey) (Certificate, error) {
	if !role.Valid() {
		return Certificate{}, fmt.Errorf("register %q: %w", id, ErrRoleMismatch)
	}
	if pub.IsZero() {
		return Certificate{}, fmt.Errorf("register %q: zero public key: %w", id, ErrBadCertificate)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[id]; ok {
		return Certificate{}, fmt.Errorf("register %q: %w", id, ErrDuplicateNode)
	}
	cert := Certificate{ID: id, Role: role, PublicKey: pub}
	cert.Signature = m.rootKey.Sign(cert.signingBytes())
	m.nodes[id] = &record{cert: cert}
	m.byRole[role] = append(m.byRole[role], id)
	return cert, nil
}

// VerifyCertificate checks that cert was issued by this IM and is not
// revoked.
func (m *Manager) VerifyCertificate(cert Certificate) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.verifyCertLocked(cert)
}

func (m *Manager) verifyCertLocked(cert Certificate) error {
	if m.revoked[cert.ID] {
		return fmt.Errorf("certificate for %q: %w", cert.ID, ErrRevoked)
	}
	if err := m.rootPub.Verify(cert.signingBytes(), cert.Signature); err != nil {
		return fmt.Errorf("certificate for %q: %w", cert.ID, ErrBadCertificate)
	}
	return nil
}

// VerifyCertificateAgainst checks cert against an explicit root key.
// Nodes that hold only the root public key (not the Manager) use this.
func VerifyCertificateAgainst(root crypto.PublicKey, cert Certificate) error {
	if err := root.Verify(cert.signingBytes(), cert.Signature); err != nil {
		return fmt.Errorf("certificate for %q: %w", cert.ID, ErrBadCertificate)
	}
	return nil
}

// Lookup returns the certificate registered under id.
func (m *Manager) Lookup(id NodeID) (Certificate, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.nodes[id]
	if !ok {
		return Certificate{}, fmt.Errorf("lookup %q: %w", id, ErrUnknownNode)
	}
	if m.revoked[id] {
		return Certificate{}, fmt.Errorf("lookup %q: %w", id, ErrRevoked)
	}
	return rec.cert, nil
}

// PublicKeyOf returns the verifying key of a registered node.
func (m *Manager) PublicKeyOf(id NodeID) (crypto.PublicKey, error) {
	cert, err := m.Lookup(id)
	if err != nil {
		return crypto.PublicKey{}, err
	}
	return cert.PublicKey, nil
}

// Revoke withdraws a node's credential. Subsequent lookups and
// verifications fail with ErrRevoked.
func (m *Manager) Revoke(id NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[id]; !ok {
		return fmt.Errorf("revoke %q: %w", id, ErrUnknownNode)
	}
	m.revoked[id] = true
	return nil
}

// Members returns the sorted IDs registered under role.
func (m *Manager) Members(role Role) []NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]NodeID, len(m.byRole[role]))
	copy(out, m.byRole[role])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Count returns how many nodes are registered under role.
func (m *Manager) Count(role Role) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byRole[role])
}

// Link records that provider p submits transactions to collector c.
// Both must be registered under the matching roles.
func (m *Manager) Link(p, c NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.requireRoleLocked(p, RoleProvider); err != nil {
		return err
	}
	if err := m.requireRoleLocked(c, RoleCollector); err != nil {
		return err
	}
	if m.links[p] == nil {
		m.links[p] = make(map[NodeID]bool)
	}
	if m.rlinks[c] == nil {
		m.rlinks[c] = make(map[NodeID]bool)
	}
	m.links[p][c] = true
	m.rlinks[c][p] = true
	return nil
}

func (m *Manager) requireRoleLocked(id NodeID, want Role) error {
	rec, ok := m.nodes[id]
	if !ok {
		return fmt.Errorf("node %q: %w", id, ErrUnknownNode)
	}
	if rec.cert.Role != want {
		return fmt.Errorf("node %q has role %s, want %s: %w", id, rec.cert.Role, want, ErrRoleMismatch)
	}
	return nil
}

// Linked reports whether provider p is linked with collector c, the
// check the paper's verify() applies to collector uploads.
func (m *Manager) Linked(p, c NodeID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.links[p][c]
}

// CollectorsOf returns the sorted collectors linked with provider p.
func (m *Manager) CollectorsOf(p NodeID) []NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return sortedKeys(m.links[p])
}

// ProvidersOf returns the sorted providers linked with collector c.
func (m *Manager) ProvidersOf(c NodeID) []NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return sortedKeys(m.rlinks[c])
}

func sortedKeys(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
