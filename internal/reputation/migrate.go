package reputation

import (
	"fmt"
	"sort"
)

// MigrateInto moves reputation state between committee topologies: for
// every relocated provider it carries the full per-provider RWM column
// (weights, per-expert losses, governor loss, round count) from src
// into dst, and for every relocated collector it carries the additive
// misreport/forge scores. This is the "portable reputation" primitive:
// when a provider is re-homed onto another committee together with its
// linked collectors, the destination governor resumes screening with
// exactly the weights the source governors had learned, rather than
// re-trusting every collector equally.
//
// providerMap maps src provider indices to dst provider indices;
// collectorMap maps src collector indices to dst collector indices.
// Only mapped members are touched — dst state for unmapped members is
// left as constructed. Every collector linked to a mapped provider in
// src must itself be mapped, and its image must be linked to the
// provider's image in dst with the same degree, so the whole column
// transfers; partial columns are rejected because a half-moved weight
// vector has no well-defined screening distribution.
//
// Both tables must share parameters: the weights are only comparable
// under the same β decay and the additive scores only price revenue
// identically under the same µ/ν.
func MigrateInto(dst, src *Table, providerMap, collectorMap map[int]int) error {
	if dst.params != src.params {
		return fmt.Errorf("dst params %+v, src params %+v: %w", dst.params, src.params, ErrBadParams)
	}
	for _, srcK := range sortedIntKeys(providerMap) {
		dstK := providerMap[srcK]
		srcIn, err := src.Instance(srcK)
		if err != nil {
			return fmt.Errorf("migrate src provider %d: %w", srcK, err)
		}
		dstIn, err := dst.Instance(dstK)
		if err != nil {
			return fmt.Errorf("migrate dst provider %d: %w", dstK, err)
		}
		if srcIn.Experts() != dstIn.Experts() {
			return fmt.Errorf("provider %d→%d: %d experts into %d: %w",
				srcK, dstK, srcIn.Experts(), dstIn.Experts(), ErrBadParams)
		}
		n := srcIn.Experts()
		weights := make([]float64, n)
		losses := make([]float64, n)
		filled := make([]bool, n)
		for pos, c := range src.topo.CollectorsOf(srcK) {
			dc, ok := collectorMap[c]
			if !ok {
				return fmt.Errorf("provider %d→%d: linked collector %d unmapped: %w",
					srcK, dstK, c, ErrNotLinked)
			}
			dpos, err := dst.expertPos(dstK, dc)
			if err != nil {
				return fmt.Errorf("provider %d→%d: collector %d→%d: %w", srcK, dstK, c, dc, err)
			}
			if filled[dpos] {
				return fmt.Errorf("provider %d→%d: collector slot %d filled twice: %w",
					srcK, dstK, dpos, ErrBadParams)
			}
			filled[dpos] = true
			weights[dpos] = srcIn.Weight(pos)
			losses[dpos] = srcIn.ExpertLoss(pos)
		}
		for dpos, ok := range filled {
			if !ok {
				return fmt.Errorf("provider %d→%d: dst collector slot %d unfilled: %w",
					srcK, dstK, dpos, ErrBadParams)
			}
		}
		if err := dstIn.Restore(weights, losses, srcIn.GovernorLoss(), srcIn.Rounds()); err != nil {
			return fmt.Errorf("provider %d→%d restore: %w", srcK, dstK, err)
		}
	}
	for _, c := range sortedIntKeys(collectorMap) {
		dc := collectorMap[c]
		if c < 0 || c >= len(src.misreport) {
			return fmt.Errorf("migrate src collector %d: %w", c, ErrUnknownCollector)
		}
		if dc < 0 || dc >= len(dst.misreport) {
			return fmt.Errorf("migrate dst collector %d: %w", dc, ErrUnknownCollector)
		}
		dst.misreport[dc] = src.misreport[c]
		dst.forge[dc] = src.forge[c]
	}
	return nil
}

// sortedIntKeys returns the map's keys in ascending order so migration
// applies in a deterministic sequence regardless of map layout.
func sortedIntKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
