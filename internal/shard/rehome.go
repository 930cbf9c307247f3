package shard

import (
	"fmt"
	"sort"

	"repchain/internal/core"
	"repchain/internal/identity"
	"repchain/internal/reputation"
)

// Rehome moves global provider k — together with its linked collectors
// — from its current committee onto committee dst, carrying the full
// learned reputation state along: every governor's per-provider RWM
// weight column and the collectors' additive misreport/forge scores
// transfer via reputation.MigrateInto and are re-applied to the
// rebuilt committees deterministically, so the destination governors
// screen the moved provider with exactly the weights the source
// governors had learned (bitwise — see the portability tests, which
// check the migrated state against an events.ReplayReputation
// reconstruction of the source committee's event log).
//
// Constraints:
//
//   - the global topology must have collector degree s = 1, so the
//     provider's r collectors serve only it and the whole unit moves;
//   - the source committee must keep at least one provider;
//   - per-collector Behaviors are unsupported (their global slicing
//     no longer matches after a move).
//
// The two affected committees are rebuilt like a crash-restart: chain
// heads and reputation persist (on-disk committees keep their ledger
// files; in-memory committees keep reputation but restart their
// chains), while staged mempool submissions and open argue windows are
// dropped exactly as a crash would drop them. Re-home at a quiescent
// round boundary. Migration errors are detected before anything shuts
// down and leave the cluster untouched; an error while the committees
// are being brought back up (disk failure mid-rebuild) closes the
// cluster rather than leaving half of it live.
func (cl *Cluster) Rehome(k, dst int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return core.ErrClosed
	}
	if len(cl.engines) == 1 {
		return fmt.Errorf("single-committee cluster: %w", ErrRehome)
	}
	if dst < 0 || dst >= len(cl.engines) {
		return fmt.Errorf("committee %d: %w", dst, ErrUnknownCommittee)
	}
	slot, err := cl.homeLocked(k)
	if err != nil {
		return err
	}
	src := slot.Committee
	if src == dst {
		return fmt.Errorf("provider %d already on committee %d: %w", k, dst, ErrRehome)
	}
	if s := cl.cfg.Base.Spec.CollectorDegree(); s != 1 {
		return fmt.Errorf("collector degree %d (need 1 so collectors move with their provider): %w", s, ErrRehome)
	}
	if len(cl.members[src]) == 1 {
		return fmt.Errorf("committee %d would be left without providers: %w", src, ErrRehome)
	}
	if cl.cfg.Base.Behaviors != nil {
		return fmt.Errorf("per-collector behaviours pin the global collector layout: %w", ErrRehome)
	}

	r := cl.cfg.Base.Spec.Degree
	oldSrcEng, oldDstEng := cl.engines[src], cl.engines[dst]
	srcLocal := slot.Local
	oldDstProviders := len(cl.members[dst])

	// Index maps under the circulant s=1 layout (provider k owns
	// collectors [k·r, (k+1)·r)): source survivors above the moved
	// slot shift down one provider / r collectors; destination
	// incumbents keep their indices and the mover appends at the end.
	srcProviderMap := make(map[int]int, len(cl.members[src])-1)
	srcCollectorMap := make(map[int]int, (len(cl.members[src])-1)*r)
	for local := range cl.members[src] {
		if local == srcLocal {
			continue
		}
		to := local
		if local > srcLocal {
			to = local - 1
		}
		srcProviderMap[local] = to
		for t := 0; t < r; t++ {
			srcCollectorMap[local*r+t] = to*r + t
		}
	}
	dstProviderMap := make(map[int]int, oldDstProviders)
	dstCollectorMap := make(map[int]int, oldDstProviders*r)
	for local := range cl.members[dst] {
		dstProviderMap[local] = local
		for t := 0; t < r; t++ {
			dstCollectorMap[local*r+t] = local*r + t
		}
	}
	moverProviderMap := map[int]int{srcLocal: oldDstProviders}
	moverCollectorMap := make(map[int]int, r)
	for t := 0; t < r; t++ {
		moverCollectorMap[srcLocal*r+t] = oldDstProviders*r + t
	}

	// Route the membership tables first so the new topologies and
	// configs derive from the post-move shape.
	mover := cl.members[src][srcLocal]
	cl.members[src] = append(cl.members[src][:srcLocal:srcLocal], cl.members[src][srcLocal+1:]...)
	cl.members[dst] = append(cl.members[dst], mover)
	cl.rebuildHome()
	rollbackMembers := func() {
		cl.members[dst] = cl.members[dst][:len(cl.members[dst])-1]
		ms := append(cl.members[src], 0)
		copy(ms[srcLocal+1:], ms[srcLocal:])
		ms[srcLocal] = mover
		cl.members[src] = ms
		cl.rebuildHome()
	}

	// Build the migrated per-governor tables offline against the new
	// topologies before anything shuts down, so a migration error
	// leaves the running cluster untouched.
	migrate := func(committee int, governors int, apply func(table *reputation.Table, j int) error) ([][]byte, error) {
		ecfg, err := cl.committeeConfig(committee)
		if err != nil {
			return nil, err
		}
		topo, err := identity.NewRegularTopology(ecfg.Spec)
		if err != nil {
			return nil, err
		}
		snaps := make([][]byte, governors)
		for j := range snaps {
			table, err := reputation.NewTable(topo, ecfg.Params)
			if err != nil {
				return nil, err
			}
			if err := apply(table, j); err != nil {
				return nil, err
			}
			snaps[j] = table.Snapshot()
		}
		return snaps, nil
	}
	srcSnaps, err := migrate(src, oldSrcEng.Governors(), func(table *reputation.Table, j int) error {
		return reputation.MigrateInto(table, oldSrcEng.Governor(j).Table(), srcProviderMap, srcCollectorMap)
	})
	if err != nil {
		rollbackMembers()
		return fmt.Errorf("shard: re-home provider %d: %w", k, err)
	}
	dstSnaps, err := migrate(dst, oldDstEng.Governors(), func(table *reputation.Table, j int) error {
		if err := reputation.MigrateInto(table, oldDstEng.Governor(j).Table(), dstProviderMap, dstCollectorMap); err != nil {
			return err
		}
		return reputation.MigrateInto(table, oldSrcEng.Governor(j).Table(), moverProviderMap, moverCollectorMap)
	})
	if err != nil {
		rollbackMembers()
		return fmt.Errorf("shard: re-home provider %d: %w", k, err)
	}

	if err := cl.rebuildCommittees(map[int][][]byte{src: srcSnaps, dst: dstSnaps}); err != nil {
		// Committees are part-closed; a half-live cluster would fork
		// silently, so fail closed.
		cl.closed = true
		for _, eng := range cl.engines {
			_ = eng.Close()
		}
		return fmt.Errorf("shard: re-home provider %d: %w", k, err)
	}
	cl.rehomes.Inc()
	cl.publishHeights()
	return nil
}

// rebuildHome refreshes the provider → slot index from the membership
// tables.
func (cl *Cluster) rebuildHome() {
	for i, ms := range cl.members {
		for local, p := range ms {
			cl.home[p] = identity.CommitteeSlot{Committee: i, Local: local}
		}
	}
}

// rebuildCommittees closes the named committees and brings them back
// with their migrated reputation snapshots. On-disk committees hand the
// snapshots over in their closing checkpoint, which core.New restores
// along with the persisted chain; in-memory committees have no
// checkpoint, so the snapshots are restored into the live tables after
// construction.
func (cl *Cluster) rebuildCommittees(snaps map[int][][]byte) error {
	committees := make([]int, 0, len(snaps))
	for i := range snaps {
		committees = append(committees, i)
	}
	sort.Ints(committees)
	for _, i := range committees {
		if err := cl.engines[i].CloseMigrated(snaps[i]); err != nil {
			return fmt.Errorf("close committee %d: %w", i, err)
		}
	}
	for _, i := range committees {
		ecfg, err := cl.committeeConfig(i)
		if err != nil {
			return err
		}
		eng, err := core.New(ecfg)
		if err != nil {
			return fmt.Errorf("rebuild committee %d: %w", i, err)
		}
		if ecfg.ChainDir == "" {
			for j, snap := range snaps[i] {
				if err := eng.Governor(j).Table().RestoreSnapshot(snap); err != nil {
					_ = eng.Close()
					return fmt.Errorf("restore migrated reputation for committee %d governor %d: %w", i, j, err)
				}
			}
		}
		cl.engines[i] = eng
		// On-disk committees resume their chain (height preserved, all
		// scanned); in-memory committees restart at zero, and any locks
		// their dropped history carried go with it, like a crash.
		cl.scanned[i] = eng.Governor(0).Store().Height()
	}
	return nil
}
