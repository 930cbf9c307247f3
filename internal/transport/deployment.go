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
	// deployment would distribute per-node files; the demo keeps the
	// roster in one file.
	PrivateKey string `json:"private_key"`
	// CertSignature is the IM's signature over (ID, Role, PublicKey),
	// hex.
	CertSignature string `json:"cert_signature"`
	// Stake is the governor's initial stake units (governors only).
	Stake uint64 `json:"stake,omitempty"`
}

// Deployment is the JSON model written by repchain-keygen.
type Deployment struct {
	// RootPublicKey is the IM root verifying key, hex.
	RootPublicKey string `json:"root_public_key"`
	// Nodes lists every member.
	Nodes []NodeSpec `json:"nodes"`
	// Links maps provider index to linked collector indices.
	Links [][]int `json:"links"`
}

// NewDeployment renders a registered roster into the JSON model,
// assigning consecutive TCP ports starting at basePort in the order
// providers, collectors, governors.
func NewDeployment(im *identity.Manager, roster *identity.Roster, host string, basePort int) (*Deployment, error) {
	d := &Deployment{
		RootPublicKey: hex.EncodeToString(im.RootPublicKey().Bytes()),
	}
	port := basePort
	addNode := func(mem identity.Member, role identity.Role, stake uint64) {
		d.Nodes = append(d.Nodes, NodeSpec{
			ID:            string(mem.ID),
			Role:          role.String(),
			Index:         mem.Index,
			Addr:          fmt.Sprintf("%s:%d", host, port),
			PublicKey:     hex.EncodeToString(mem.Cert.PublicKey.Bytes()),
			PrivateKey:    hex.EncodeToString(mem.PrivateKey.Bytes()),
			CertSignature: hex.EncodeToString(mem.Cert.Signature),
			Stake:         stake,
		})
		port++
	}
	for _, mem := range roster.Providers {
		addNode(mem, identity.RoleProvider, 0)
	}
	for _, mem := range roster.Collectors {
		addNode(mem, identity.RoleCollector, 0)
	}
	for _, mem := range roster.Governors {
		addNode(mem, identity.RoleGovernor, 1)
	}
	topo := roster.Topology
	d.Links = make([][]int, topo.Providers())
	for k := 0; k < topo.Providers(); k++ {
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
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks structural consistency.
func (d *Deployment) Validate() error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("no nodes: %w", ErrBadDeployment)
	}
	seen := make(map[string]bool, len(d.Nodes))
	counts := map[string]int{}
	for i, n := range d.Nodes {
		if n.ID == "" || n.Addr == "" {
			return fmt.Errorf("node %d incomplete: %w", i, ErrBadDeployment)
		}
		if seen[n.ID] {
			return fmt.Errorf("duplicate node %q: %w", n.ID, ErrBadDeployment)
		}
		seen[n.ID] = true
		if _, err := hex.DecodeString(n.PublicKey); err != nil {
			return fmt.Errorf("node %q public key: %w", n.ID, ErrBadDeployment)
		}
		counts[n.Role]++
	}
	if counts["governor"] == 0 {
		return fmt.Errorf("no governors: %w", ErrBadDeployment)
	}
	if len(d.Links) != counts["provider"] {
		return fmt.Errorf("links for %d providers, have %d: %w", len(d.Links), counts["provider"], ErrBadDeployment)
	}
	for k, cs := range d.Links {
		for _, c := range cs {
			if c < 0 || c >= counts["collector"] {
				return fmt.Errorf("provider %d links to collector %d of %d: %w", k, c, counts["collector"], ErrBadDeployment)
			}
		}
	}
	return nil
}

// Counts returns (providers, collectors, governors).
func (d *Deployment) Counts() (int, int, int) {
	var l, n, m int
	for _, node := range d.Nodes {
		switch node.Role {
		case "provider":
			l++
		case "collector":
			n++
		case "governor":
			m++
		}
	}
	return l, n, m
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

// NodesByRole returns the specs of one role, ordered by index.
func (d *Deployment) NodesByRole(role string) []NodeSpec {
	var out []NodeSpec
	for _, n := range d.Nodes {
		if n.Role == role {
			out = append(out, n)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Index < out[j-1].Index; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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

// Topology reconstructs the provider–collector graph.
func (d *Deployment) Topology() (*identity.Topology, error) {
	l, n, _ := d.Counts()
	return identity.NewTopologyFromLinks(l, n, d.Links)
}

// BuildIdentityManager reconstructs an identity.Manager view of the
// deployment for verify() calls: a fresh IM re-registers every node
// and link. Certificates are re-issued locally (the original root
// signatures remain in the specs for offline verification against
// RootPublicKey).
func (d *Deployment) BuildIdentityManager() (*identity.Manager, error) {
	im, err := identity.NewManager()
	if err != nil {
		return nil, err
	}
	roleOf := map[string]identity.Role{
		"provider":  identity.RoleProvider,
		"collector": identity.RoleCollector,
		"governor":  identity.RoleGovernor,
	}
	for _, n := range d.Nodes {
		role, ok := roleOf[n.Role]
		if !ok {
			return nil, fmt.Errorf("node %q role %q: %w", n.ID, n.Role, ErrBadDeployment)
		}
		pub, err := n.PublicKeyOf()
		if err != nil {
			return nil, err
		}
		if _, err := im.Register(identity.NodeID(n.ID), role, pub); err != nil {
			return nil, err
		}
	}
	providers := d.NodesByRole("provider")
	collectors := d.NodesByRole("collector")
	for k, cs := range d.Links {
		for _, c := range cs {
			if err := im.Link(identity.NodeID(providers[k].ID), identity.NodeID(collectors[c].ID)); err != nil {
				return nil, err
			}
		}
	}
	return im, nil
}
