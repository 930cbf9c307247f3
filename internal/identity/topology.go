package identity

import (
	"fmt"
	"slices"
)

// TopologySpec describes the regular bipartite provider–collector graph
// of the paper's model: l providers, n collectors, each provider linked
// with r collectors and each collector with s providers, satisfying
// r·l = s·n.
type TopologySpec struct {
	// Providers is l, the number of providers.
	Providers int
	// Collectors is n, the number of collectors.
	Collectors int
	// Degree is r, collectors per provider.
	Degree int
}

// Validate checks the spec is realizable as a regular bipartite graph.
func (t TopologySpec) Validate() error {
	switch {
	case t.Providers <= 0:
		return fmt.Errorf("providers %d: %w", t.Providers, ErrBadTopology)
	case t.Collectors <= 0:
		return fmt.Errorf("collectors %d: %w", t.Collectors, ErrBadTopology)
	case t.Degree <= 0 || t.Degree > t.Collectors:
		return fmt.Errorf("degree %d with %d collectors: %w", t.Degree, t.Collectors, ErrBadTopology)
	case (t.Providers*t.Degree)%t.Collectors != 0:
		return fmt.Errorf("r·l = %d not divisible by n = %d, collector degree s not integral: %w",
			t.Providers*t.Degree, t.Collectors, ErrBadTopology)
	}
	return nil
}

// CollectorDegree returns s = r·l / n.
func (t TopologySpec) CollectorDegree() int {
	return t.Providers * t.Degree / t.Collectors
}

// Topology is a concrete bipartite linking between provider and
// collector indices. It is immutable after construction.
type Topology struct {
	byProvider  [][]int // provider index -> sorted collector indices
	byCollector [][]int // collector index -> sorted provider indices
}

// NewRegularTopology builds the circulant regular topology: provider k
// links to collectors (k·r + t) mod n for t in [0, r). Every provider
// has degree exactly r and every collector degree exactly s = r·l/n.
func NewRegularTopology(spec TopologySpec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	links := make([][]int, spec.Providers)
	for k := range links {
		for t := 0; t < spec.Degree; t++ {
			links[k] = append(links[k], (k*spec.Degree+t)%spec.Collectors)
		}
	}
	return NewTopologyFromLinks(spec.Providers, spec.Collectors, links)
}

// NewTopologyFromLinks builds a topology from explicit adjacency
// lists (provider index -> collector indices), for irregular networks.
func NewTopologyFromLinks(providers, collectors int, links [][]int) (*Topology, error) {
	if providers <= 0 || collectors <= 0 {
		return nil, fmt.Errorf("providers %d collectors %d: %w", providers, collectors, ErrBadTopology)
	}
	if len(links) != providers {
		return nil, fmt.Errorf("links for %d providers, want %d: %w", len(links), providers, ErrBadTopology)
	}
	topo := &Topology{
		byProvider:  make([][]int, providers),
		byCollector: make([][]int, collectors),
	}
	// Providers are visited in ascending order, so every collector's
	// provider list comes out sorted.
	for k, cs := range links {
		sorted := slices.Clone(cs)
		slices.Sort(sorted)
		for i, c := range sorted {
			if c < 0 || c >= collectors {
				return nil, fmt.Errorf("provider %d links to collector %d of %d: %w", k, c, collectors, ErrBadTopology)
			}
			if i > 0 && sorted[i-1] == c {
				return nil, fmt.Errorf("provider %d links to collector %d twice: %w", k, c, ErrBadTopology)
			}
			topo.byCollector[c] = append(topo.byCollector[c], k)
		}
		topo.byProvider[k] = sorted
	}
	return topo, nil
}

// Providers returns l.
func (t *Topology) Providers() int { return len(t.byProvider) }

// Collectors returns n.
func (t *Topology) Collectors() int { return len(t.byCollector) }

// CollectorsOf returns the collector indices linked with provider k.
// The returned slice must not be modified.
func (t *Topology) CollectorsOf(k int) []int {
	if k < 0 || k >= len(t.byProvider) {
		return nil
	}
	return t.byProvider[k]
}

// ProvidersOf returns the provider indices linked with collector c.
// The returned slice must not be modified.
func (t *Topology) ProvidersOf(c int) []int {
	if c < 0 || c >= len(t.byCollector) {
		return nil
	}
	return t.byCollector[c]
}

// Linked reports whether provider k and collector c are connected.
func (t *Topology) Linked(k, c int) bool {
	_, found := slices.BinarySearch(t.CollectorsOf(k), c)
	return found
}
