// Graceful degradation under faults: crash–restart of individual
// collectors and governors, and replica resynchronisation after a
// governor rejoins. The engine plays the role of a perfect failure
// detector — Crash* marks a node down, Restart* marks it live again —
// and RunRound excludes down nodes from every fan-out and quorum, so a
// missing node costs throughput (fewer reports, a smaller election)
// instead of wedging the round.
//
// Two fault classes behave differently:
//
//   - detected faults (crash, partition): the node is excluded, the
//     live quorum proceeds, and the node resyncs from the tallest live
//     replica at the next round start;
//   - undetected faults (random drop, duplicate, reorder on the bus):
//     a round that loses a VRF batch or every copy of the proposed
//     block aborts with ErrRoundAborted — no replica appends anything —
//     and the next round retries.
//
// All transitions and exclusions are plain deterministic state, so a
// fault plan replayed against any worker count produces byte-identical
// chains and reputation tables (the chaos suite asserts this).
package core

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"

	"repchain/internal/consensus"
	"repchain/internal/events"
	"repchain/internal/network"
)

// emitNodeEvent records a node.crash/node.restart transition plus the
// resulting governor quorum in the event stream. Collector
// transitions change no quorum, so they emit only the node event.
func (e *Engine) emitNodeEvent(typ, node, cause string, quorum bool) {
	if e.events == nil {
		return
	}
	e.events.Emit(typ, "", e.round, node, slog.String("cause", cause))
	if quorum {
		e.events.Emit(events.TypeQuorumChange, "", e.round, node,
			slog.Int("live", len(e.liveGovernors())),
			slog.Int("total", len(e.governors)),
			slog.String("cause", cause))
	}
}

// CrashCollector marks collector c crashed: the bus drops its traffic
// in both directions and its queued inbox is discarded, as a real
// process crash would.
func (e *Engine) CrashCollector(c int) error {
	if c < 0 || c >= len(e.collectors) || e.collectorDown[c] {
		return fmt.Errorf("crash collector %d: %w", c, ErrNodeDown)
	}
	e.collectorDown[c] = true
	e.bus.SetDown(e.roster.Collectors[c].ID, true)
	e.collectors[c].Endpoint().Purge()
	e.reg.Counter("chaos.collector_crashes").Inc()
	e.emitNodeEvent(events.TypeNodeCrash, string(e.roster.Collectors[c].ID), "crash", false)
	return nil
}

// RestartCollector brings a crashed collector back. Its inbox is
// purged again — messages sent while it was down never survive a
// restart — and it participates from the next round on.
func (e *Engine) RestartCollector(c int) error {
	if c < 0 || c >= len(e.collectors) || !e.collectorDown[c] {
		return fmt.Errorf("restart collector %d: %w", c, ErrNodeDown)
	}
	e.collectorDown[c] = false
	e.bus.SetDown(e.roster.Collectors[c].ID, false)
	e.collectors[c].Endpoint().Purge()
	e.emitNodeEvent(events.TypeNodeRestart, string(e.roster.Collectors[c].ID), "restart", false)
	return nil
}

// CrashGovernor marks governor j crashed. The remaining governors run
// rounds without it: its stake is treated as zero in elections and it
// neither screens nor appends until restarted. At least one governor
// must stay live.
func (e *Engine) CrashGovernor(j int) error {
	if j < 0 || j >= len(e.governors) || e.governorDown[j] {
		return fmt.Errorf("crash governor %d: %w", j, ErrNodeDown)
	}
	live := 0
	for i, down := range e.governorDown {
		if !down && i != j {
			live++
		}
	}
	if live == 0 {
		return fmt.Errorf("crash governor %d: no live governor would remain: %w", j, ErrBadConfig)
	}
	e.governorDown[j] = true
	g := e.governors[j]
	e.bus.SetDown(g.ID(), true)
	e.endpoints[j].Purge()
	g.Purge()
	e.emitNodeEvent(events.TypeNodeCrash, string(g.ID()), "crash", true)
	return nil
}

// RestartGovernor brings a crashed governor back with a purged inbox.
// Its replica catches up from the tallest live chain at the start of
// the next round (resyncGovernors), so the first post-restart round
// already proposes on a common head.
func (e *Engine) RestartGovernor(j int) error {
	if j < 0 || j >= len(e.governors) || !e.governorDown[j] {
		return fmt.Errorf("restart governor %d: %w", j, ErrNodeDown)
	}
	e.governorDown[j] = false
	e.bus.SetDown(e.governors[j].ID(), false)
	e.endpoints[j].Purge()
	e.emitNodeEvent(events.TypeNodeRestart, string(e.governors[j].ID()), "restart", true)
	return nil
}

// IsolateGovernor records the failure-detector verdict for a governor
// cut off by a network partition: excluded from rounds like a crashed
// one, but its inbox and bus reachability are left alone — the bus
// partition itself decides which messages survive. Reconnect with
// ReconnectGovernor once the partition heals.
func (e *Engine) IsolateGovernor(j int) error {
	if j < 0 || j >= len(e.governors) || e.governorDown[j] {
		return fmt.Errorf("isolate governor %d: %w", j, ErrNodeDown)
	}
	e.governorDown[j] = true
	e.emitNodeEvent(events.TypeNodeCrash, string(e.governors[j].ID()), "partition", true)
	return nil
}

// ReconnectGovernor reverses IsolateGovernor after a partition heals.
// Stale messages queued during the partition are purged — the governor
// resyncs from the chain, not from an expired round's traffic.
func (e *Engine) ReconnectGovernor(j int) error {
	if j < 0 || j >= len(e.governors) || !e.governorDown[j] {
		return fmt.Errorf("reconnect governor %d: %w", j, ErrNodeDown)
	}
	e.governorDown[j] = false
	e.endpoints[j].Purge()
	e.emitNodeEvent(events.TypeNodeRestart, string(e.governors[j].ID()), "reconnect", true)
	return nil
}

// Collectors returns n, the collector count.
func (e *Engine) Collectors() int { return len(e.collectors) }

// liveGovernors returns the indices not currently marked down, in
// order.
func (e *Engine) liveGovernors() []int {
	out := make([]int, 0, len(e.governors))
	for j, down := range e.governorDown {
		if !down {
			out = append(out, j)
		}
	}
	return out
}

// resyncGovernors brings every live replica up to the tallest live
// chain, and the newest stake block, before a round starts, and checks
// the live governors agree on the stakes the election will run on. A
// governor that missed blocks — crashed, partitioned, or simply unlucky
// with drops — verifies each missing block against its proposer's key
// and appends it, exactly as if the original broadcast had arrived late.
func (e *Engine) resyncGovernors() error {
	live := e.liveGovernors()
	if len(live) == 0 {
		return fmt.Errorf("no live governor: %w", ErrRoundAborted)
	}
	src, maxH := -1, uint64(0)
	for _, j := range live {
		if h := e.governors[j].Store().Height(); src == -1 || h > maxH {
			src, maxH = j, h
		}
	}
	blocksSynced := e.reg.Counter("chaos.blocks_synced")
	for _, j := range live {
		g := e.governors[j]
		if g.Store().Height() >= maxH {
			continue
		}
		e.reg.Counter("chaos.governor_resyncs").Inc()
		for g.Store().Height() < maxH {
			serial := g.Store().Height() + 1
			b, err := e.governors[src].Store().Get(serial)
			if err != nil {
				return fmt.Errorf("resync governor %d block %d: %w", j, serial, err)
			}
			if err := g.AcceptBlock(b.EncodeBytes()); err != nil {
				return fmt.Errorf("resync governor %d block %d: %w", j, serial, err)
			}
			blocksSynced.Inc()
		}
	}
	// A governor that lost the newest stake block, or evidence expelling a
	// leader — to a drop, or while down — is handed it again, block
	// first; then every live governor must hold one stake vector.
	var newest *consensus.StakeBlock
	evidence := make([]*consensus.Evidence, len(e.governors))
	for _, j := range live {
		if sb := e.governors[j].StakeBlock(); sb != nil && (newest == nil || sb.Round > newest.Round) {
			newest = sb
		}
		for l := range evidence {
			evidence[l] = cmp.Or(evidence[l], e.governors[j].Expulsion(l))
		}
	}
	for _, j := range live {
		r, ref := e.governors[j], e.governors[live[0]]
		var lost []network.Message
		if sb := r.StakeBlock(); newest != nil && (sb == nil || sb.Round < newest.Round) {
			lost = append(lost, network.Message{Kind: network.KindStakeBlock, Payload: consensus.EncodeStakeBlock(*newest)})
		}
		for l, ev := range evidence {
			if ev != nil && r.Expulsion(l) == nil {
				lost = append(lost, network.Message{Kind: network.KindEvidence, Payload: consensus.EncodeEvidence(*ev)})
			}
		}
		if err := r.Ingest(lost); err != nil {
			return fmt.Errorf("resync governor %d: %w", j, err)
		}
		if !slices.Equal(r.Stakes(), ref.Stakes()) {
			return fmt.Errorf("governor %d stakes %v, governor %d %v: %w", j, r.Stakes(), live[0], ref.Stakes(), ErrDisagreement)
		}
	}
	return nil
}
