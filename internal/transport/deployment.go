// Package transport runs the protocol over real TCP sockets: a framed,
// pairwise-authenticated peer-to-peer message layer plus a wall-clock
// round runtime, so an alliance can be deployed as one process per
// node. The simulation bus (package network) and this package carry
// the same protocol messages; the reputation, consensus, and ledger
// code is shared unchanged.
package transport

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"

	"encoding/json"

	"repchain/internal/crypto"
	"repchain/internal/identity"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadDeployment reports an inconsistent deployment file.
	ErrBadDeployment = errors.New("transport: invalid deployment")
	// ErrUnknownPeer reports a message for or from an unknown node.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
)

// NodeSpec is one node's entry in a deployment file.
type NodeSpec struct {
	// ID is the canonical node identifier, e.g. "governor/0".
	ID string `json:"id"`
	// Role is "provider", "collector", or "governor".
	Role string `json:"role"`
	// Index is the node's position within its role.
	Index int `json:"index"`
	// Addr is the node's TCP listen address.
	Addr string `json:"addr"`
	// PublicKey is the node's Ed25519 public key, hex.
	PublicKey string `json:"public_key"`
	// PrivateKey is the node's Ed25519 private key, hex. A production
	// deployment would distribute per-node files with only the node's
	// own key; the demo keeps the roster in one file.
	PrivateKey string `json:"private_key"`
	// Stake is the governor's initial stake units (governors only).
	Stake uint64 `json:"stake,omitempty"`
}

// Deployment is the JSON model written by repchain-keygen: the alliance's
// roster (Roster) plus each node's address and initial stake.
type Deployment struct {
	// Nodes lists every member.
	Nodes []NodeSpec `json:"nodes"`
	// Links maps provider index to linked collector indices.
	Links [][]int `json:"links"`

	// roster is the membership NewDeployment was given or LoadDeployment
	// parsed, shared by every node run from this deployment so that each
	// key builds its verification table once; nil for a literal.
	roster *identity.Roster
}

// NewDeployment renders a roster into the JSON model, assigning
// consecutive TCP ports starting at basePort in the order providers,
// collectors, governors. The unused first parameter is the benchmark
// harness's seam (identity.RegisterAll).
func NewDeployment(_ *identity.Manager, roster *identity.Roster, host string, basePort int) (*Deployment, error) {
	d := &Deployment{roster: roster}
	for _, role := range [][]identity.Member{roster.Providers, roster.Collectors, roster.Governors} {
		for _, mem := range role {
			var stake uint64
			if mem.Role == identity.RoleGovernor {
				stake = 1
			}
			d.Nodes = append(d.Nodes, NodeSpec{
				ID:         string(mem.ID),
				Role:       mem.Role.String(),
				Index:      mem.Index,
				Addr:       fmt.Sprintf("%s:%d", host, basePort+len(d.Nodes)),
				PublicKey:  hex.EncodeToString(mem.PublicKey.Bytes()),
				PrivateKey: hex.EncodeToString(mem.PrivateKey.Bytes()),
				Stake:      stake,
			})
		}
	}
	topo := roster.Topology
	d.Links = make([][]int, topo.Providers())
	for k := range d.Links {
		d.Links[k] = append([]int(nil), topo.CollectorsOf(k)...)
	}
	return d, nil
}

// LoadDeployment reads and validates a deployment file.
func LoadDeployment(path string) (*Deployment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read deployment: %w", err)
	}
	var d Deployment
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse deployment: %w", err)
	}
	roster, err := d.validate()
	if err != nil {
		return nil, err
	}
	d.roster = roster
	return &d, nil
}

// Validate checks that every node has an address and that the nodes
// and links form a roster (Roster).
func (d *Deployment) Validate() error {
	_, err := d.validate()
	return err
}

// validate is Validate, returning the roster it parsed.
func (d *Deployment) validate() (*identity.Roster, error) {
	for i, n := range d.Nodes {
		if n.Addr == "" {
			return nil, fmt.Errorf("node %d %q has no address: %w", i, n.ID, ErrBadDeployment)
		}
	}
	return d.parseRoster()
}

// Roster returns the alliance's membership: the roster the deployment
// was built from or loaded into, read-only and shared by every caller,
// or, for a Deployment literal, one parsed from Nodes and Links anew.
func (d *Deployment) Roster() (*identity.Roster, error) {
	if d.roster != nil {
		return d.roster, nil
	}
	return d.parseRoster()
}

// parseRoster builds the membership from Nodes and Links: every node's
// role, index and keys (a private key only where the file holds one)
// over the topology of Links. Each node's ID must be its role and
// index, and each role's indices 0…k−1.
func (d *Deployment) parseRoster() (*identity.Roster, error) {
	members := make([]identity.Member, len(d.Nodes))
	var counts [identity.RoleGovernor + 1]int
	for i, n := range d.Nodes {
		role := identity.RoleNamed(n.Role)
		if !role.Valid() {
			return nil, fmt.Errorf("node %q role %q: %w", n.ID, n.Role, ErrBadDeployment)
		}
		counts[role]++
		pub, err := n.PublicKeyOf()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadDeployment, err)
		}
		members[i] = identity.Member{ID: identity.NodeID(n.ID), Role: role, Index: n.Index, PublicKey: pub}
		if n.PrivateKey != "" {
			if members[i].PrivateKey, err = n.PrivateKeyOf(); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadDeployment, err)
			}
		}
	}
	topo, err := identity.NewTopologyFromLinks(counts[identity.RoleProvider], counts[identity.RoleCollector], d.Links)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadDeployment, err)
	}
	roster, err := identity.RosterOf(topo, members)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadDeployment, err)
	}
	return roster, nil
}

// Node returns the spec for id.
func (d *Deployment) Node(id string) (NodeSpec, error) {
	for _, n := range d.Nodes {
		if n.ID == id {
			return n, nil
		}
	}
	return NodeSpec{}, fmt.Errorf("node %q: %w", id, ErrUnknownPeer)
}

// PublicKeyOf parses a node's public key.
func (n NodeSpec) PublicKeyOf() (crypto.PublicKey, error) {
	raw, err := hex.DecodeString(n.PublicKey)
	if err != nil {
		return crypto.PublicKey{}, fmt.Errorf("node %q public key: %w", n.ID, ErrBadDeployment)
	}
	return crypto.PublicKeyFromBytes(raw)
}

// PrivateKeyOf parses a node's private key.
func (n NodeSpec) PrivateKeyOf() (crypto.PrivateKey, error) {
	raw, err := hex.DecodeString(n.PrivateKey)
	if err != nil {
		return crypto.PrivateKey{}, fmt.Errorf("node %q private key: %w", n.ID, ErrBadDeployment)
	}
	return crypto.PrivateKeyFromBytes(raw)
}
