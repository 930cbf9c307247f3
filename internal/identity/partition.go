package identity

import "fmt"

// ModuloPartition is the provider partition: provider index modulo
// the committee count. It keeps committees balanced whenever the
// provider count is a multiple of the committee count, which is also
// the shape the regular circulant topology needs per committee. It is
// a pure function, so every replica derives the same assignment.
func ModuloPartition(provider, committees int) int {
	if committees <= 0 {
		return 0
	}
	return provider % committees
}

// CommitteeSlot locates a global provider inside a partition: the
// committee it lives on and its local provider index there. Local
// indices are assigned by ascending global index, so the mapping is a
// pure function of the partition and needs no extra state to replay.
type CommitteeSlot struct {
	// Committee is the committee index in [0, K).
	Committee int
	// Local is the provider's index within that committee's topology.
	Local int
}

// Partition is the materialized assignment of a global provider set
// across K committees. It is immutable after construction.
type Partition struct {
	committees int
	members    [][]int         // committee -> ascending global provider indices
	home       []CommitteeSlot // global provider -> slot
}

// NewPartition evaluates ModuloPartition over every global provider
// index and materializes the committee membership tables. Every
// committee must end up non-empty (providers ≥ committees): an empty
// committee has no providers to elect stake from and cannot run the
// protocol, so it is rejected here rather than failing later inside
// engine construction.
func NewPartition(providers, committees int) (*Partition, error) {
	if providers <= 0 {
		return nil, fmt.Errorf("partition over %d providers: %w", providers, ErrBadTopology)
	}
	if committees <= 0 {
		return nil, fmt.Errorf("partition into %d committees: %w", committees, ErrBadTopology)
	}
	p := &Partition{
		committees: committees,
		members:    make([][]int, committees),
		home:       make([]CommitteeSlot, providers),
	}
	for k := 0; k < providers; k++ {
		i := ModuloPartition(k, committees)
		p.home[k] = CommitteeSlot{Committee: i, Local: len(p.members[i])}
		p.members[i] = append(p.members[i], k)
	}
	for i, ms := range p.members {
		if len(ms) == 0 {
			return nil, fmt.Errorf("committee %d has no providers: %w", i, ErrBadTopology)
		}
	}
	return p, nil
}

// Committees returns K.
func (p *Partition) Committees() int { return p.committees }

// Members returns the ascending global provider indices assigned to
// committee i. The returned slice must not be modified.
func (p *Partition) Members(i int) []int {
	if i < 0 || i >= len(p.members) {
		return nil
	}
	return p.members[i]
}

// Home returns the committee slot of global provider k. The second
// result is false when k is out of range.
func (p *Partition) Home(k int) (CommitteeSlot, bool) {
	if k < 0 || k >= len(p.home) {
		return CommitteeSlot{}, false
	}
	return p.home[k], true
}
