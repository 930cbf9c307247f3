package node

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"repchain/internal/consensus"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
)

// The governor's round (§3.1 processing phase) is one transition, Step:
// a driver hands it the messages it drained, the time and a Sender, and
// Step runs, in the paper's order, every step whose inputs are in or
// whose deadline has passed — open the round, screen, broadcast VRF
// tickets, elect, propose when leading, adopt the block, run the stake
// transform (stake.go), checkpoint on the snapshot cadence. It does no
// network I/O, reads no clock and starts no goroutine. core.Engine steps
// an alliance in lock-step, each deadline right after the bus tick that
// brings its inputs; transport.RunNode steps one governor whenever a
// frame arrives or its next deadline passes.
//
//	NewGovernor → Step* → Checkpoint → Close
//
// Under the paper's synchrony assumption every node owns a loosely
// synchronized clock, and a shared round duration R paces the round:
//
//	t0 + 0.00·R    providers broadcast the round's transactions
//	t0 + 0.30·R    collectors label and upload what arrived
//	t0 + 0.55·R    deadline: governors screen, then broadcast VRF tickets
//	t0 + 0.835·R   deadline: governors elect; the leader broadcasts the block
//	t0 + 1.00·R    deadline: the round ends; a governor gives up on a
//	               missing block and stops the stake transform
//
// The first two marks pace the providers and collectors. A deadline only
// bounds the wait for an input that is late or lost; the gap before each
// exceeds the network's delivery bound Δ provided R is chosen
// accordingly. A round spans (start, end]; the first Step after its end
// finishes it — one short of its commit phase is abandoned — and opens
// the clock's round.

// Deadlines within a round, as fractions of R from its start.
const (
	DeadlineScreen = 0.55
	DeadlineElect  = 0.835
)

// Clock fixes the shared round schedule.
type Clock struct {
	// Epoch starts the clock's first round; for a governor, the round
	// after its replica's head at NewGovernor.
	Epoch time.Time
	// Round is the round duration R.
	Round time.Duration
}

// At is the instant frac of the way through the clock's round k.
func (c Clock) At(k uint64, frac float64) time.Time {
	return c.Epoch.Add(time.Duration(int64(k)-1)*c.Round + time.Duration(frac*float64(c.Round)))
}

// index is the clock round whose span holds now, 0 up to Epoch.
func (c Clock) index(now time.Time) uint64 {
	d := now.Sub(c.Epoch)
	if d <= 0 {
		return 0
	}
	return uint64((d + c.Round - 1) / c.Round)
}

// Phase is where a governor stands in its round: over (a new governor's
// phase; also after a failed election), awaiting the uploads, awaiting
// the tickets, leading with its block to propose, awaiting the block
// while the stake transform runs.
type Phase uint8

// The phases, in order.
const (
	PhaseOver Phase = iota
	PhaseScreen
	PhaseElect
	PhasePack
	PhaseCommit
)

// KindDown is a failure detector's verdict, handed to Step as a message
// from the governor itself: a byte per governor, 1 for each held down.
// The next election runs with those at stake 0.
const KindDown = "detector.down"

// Progress is where a Step left the governor.
type Progress struct {
	Round     uint64
	Phase     Phase
	Leader    int  // -1 before the election
	Committed bool // the round's block is on this replica
	StakeDone bool // the last stake step had nothing left to do
	// WakeAt is when the governor next has something to do unless a
	// message arrives; now when a step is held for the next Step.
	WakeAt time.Time
}

// Step moves the governor to the clock's round at now, files msgs, runs
// every step that is due and reports where that leaves the governor.
// Electing ends a Step, and so does proposing, with the next step due at
// once: a driver can time them apart, and the block is out before the
// stake transform. An incomplete election, a wrapped
// consensus.ErrIncompleteElection, ends the round.
func (g *Governor) Step(now time.Time, msgs []network.Message, out Sender) (Progress, error) {
	var err error
	if round := g.base + g.cfg.Clock.index(now); round > g.round {
		// A round the clock has left ends with its checkpoint, or is
		// abandoned short of its commit phase.
		if g.phase == PhaseCommit {
			err = g.maybeCheckpoint()
		}
		g.begin(round)
	}
	if err == nil {
		err = g.Ingest(msgs)
	}
	var wake time.Time
	for wake.IsZero() && err == nil {
		wake, err = g.advance(now, out)
	}
	return Progress{Round: g.round, Phase: g.phase, Leader: g.leader,
		Committed: g.leader >= 0 && g.store.Height() > g.baseHeight, StakeDone: g.stakeDone, WakeAt: wake}, err
}

// advance runs the governor's next step if it is due at now. It returns
// when the governor waits for — now to hold a due step for the next
// Step — or the zero time when the step after may be due too.
func (g *Governor) advance(now time.Time, out Sender) (time.Time, error) {
	at := func(frac float64) time.Time { return g.cfg.Clock.At(g.round-g.base, frac) }
	switch g.phase {
	case PhaseScreen:
		if !g.uploadsIn(g.round) && now.Before(at(DeadlineScreen)) {
			return at(DeadlineScreen), nil
		}
		if err := g.screen(); err != nil {
			return now, err
		}
		g.phase = PhaseElect
		return time.Time{}, g.sendTickets(out)
	case PhaseElect:
		if !g.ticketsIn() && now.Before(at(DeadlineElect)) {
			return at(DeadlineElect), nil
		}
		// A failed election ends the round.
		g.phase = PhaseOver
		if err := g.elect(); err != nil {
			return now, err
		}
		g.phase = PhaseCommit
		if g.leader == g.cfg.Member.Index {
			g.phase = PhasePack
		}
		return now, nil
	case PhasePack:
		g.phase = PhaseCommit
		return now, g.propose(out)
	case PhaseCommit:
		if g.store.Height() == g.baseHeight {
			if err := g.adoptStashed(g.leader); err != nil {
				return now, err
			}
		}
		if now.Before(at(1)) {
			var err error
			g.stakeDone, err = g.stakeStep(out)
			return at(1), err
		}
		// The round's end: give up on a missing block (a late frame is
		// adopted when the next round screens) and checkpoint.
		g.phase = PhaseOver
		if err := g.maybeCheckpoint(); err != nil {
			return now, err
		}
	}
	// Over: the next round opens after this one's end.
	return at(1).Add(time.Nanosecond), nil
}

// begin opens round `round`: the previous round's ticket batches and
// stake messages go, batches filed ahead for this one become its own,
// stashed block frames stay (the previous leader's may be among them).
func (g *Governor) begin(round uint64) {
	ahead := round == g.round+1
	g.round, g.phase, g.stakeDone = round, PhaseScreen, false
	g.prevLeader, g.leader = g.leader, -1
	g.clearRound()
	if ahead {
		g.tickets, g.next = g.next, g.tickets
		g.filed, g.nextFiled = g.nextFiled, g.filed
	} else {
		clearTickets(g.next, g.nextFiled)
	}
}

// Purge forgets everything volatile a crash would lose: the round in
// flight, filed tickets and stake messages, stashed block frames.
func (g *Governor) Purge() {
	g.phase = PhaseOver
	g.clearRound()
	clearTickets(g.next, g.nextFiled)
	g.blocks = nil
}

func (g *Governor) clearRound() {
	clearTickets(g.tickets, g.filed)
	g.proposal, g.proposed, g.answered, g.assembled = nil, false, false, false
	clear(g.endorsements)
}

func clearTickets(tickets [][]consensus.Ticket, filed []bool) {
	clear(tickets)
	clear(filed)
}

// Ingest files messages as Step does before stepping; a driver that
// re-delivers a lost one between rounds may call it alone. Uploads and
// argues pass through handleBatch, ticket batches are filed under their
// sender and round (this one or the next; otherwise, or a sender's
// second, counted in election.vrf_*), block frames are stashed, stake
// messages filed or applied (stake.go; unused ones counted in
// node.stake_ignored_total).
func (g *Governor) Ingest(msgs []network.Message) error {
	rest, err := g.handleBatch(msgs)
	if err != nil {
		return err
	}
	for _, m := range rest {
		switch m.Kind {
		case network.KindVRF:
			g.fileTickets(m)
		case network.KindBlock:
			g.blocks = append(g.blocks, m.Payload)
		case KindDown:
			if m.From == g.ID() && len(m.Payload) == len(g.pubs) {
				g.down = m.Payload
			}
		default:
			g.fileStake(m)
		}
	}
	return nil
}

func (g *Governor) fileTickets(m network.Message) {
	sender := slices.Index(g.governorIDs, m.From)
	round, tickets, err := consensus.DecodeRoundTickets(m.Payload)
	// A peer that finished this round first may already send the next
	// round's batch; it waits in next until begin.
	batches, filed := g.tickets, g.filed
	if round == g.round+1 {
		batches, filed = g.next, g.nextFiled
	}
	switch {
	case sender < 0:
		g.reg.Counter("election.vrf_unknown_sender").Inc()
	case err != nil:
		g.reg.Counter("election.vrf_malformed").Inc()
	case round != g.round && round != g.round+1:
		g.reg.Counter("election.vrf_stale_round").Inc()
	case filed[sender]:
		g.reg.Counter("election.vrf_duplicate_batch").Inc()
	default:
		batches[sender], filed[sender] = tickets, true
	}
}

// uploadsIn reports whether every collector has a verified upload batch
// for round or later on file: a collector with nothing to upload sends
// an empty one, so only a late or lost batch keeps this false.
func (g *Governor) uploadsIn(round uint64) bool {
	return !slices.ContainsFunc(g.uploadRound, func(got uint64) bool { return got < round })
}

// screen screens everything filed so far, after committing a previous
// round's block that arrived past its round's end, so the tickets are
// made over the head the rest of the alliance has.
func (g *Governor) screen() error {
	if err := g.adoptStashed(g.prevLeader); err != nil {
		return err
	}
	if err := g.processArgues(); err != nil {
		return err
	}
	records, err := g.screenRound()
	g.records = records
	return err
}

// sendTickets fixes the election stakes — Stakes, with the governors
// held down at 0 — and multicasts the governor's round-tagged VRF
// tickets over the chain head, one per own stake unit, to every
// governor (itself included).
func (g *Governor) sendTickets(out Sender) error {
	g.electing = g.Stakes()
	for j, down := range g.down {
		if down != 0 {
			g.electing[j] = 0
		}
	}
	g.prevHash = g.store.HeadHash()
	g.baseHeight = g.store.Height()
	tickets := consensus.MakeTickets(g.cfg.Member.PrivateKey, g.prevHash, g.round, g.cfg.Member.Index, g.electing[g.cfg.Member.Index])
	return out.Multicast(g.ID(), g.governorIDs, network.KindVRF, consensus.EncodeRoundTickets(g.round, tickets))
}

// ticketsIn reports whether every governor holding election stake has a
// batch on file.
func (g *Governor) ticketsIn() bool {
	for j, s := range g.electing {
		if s > 0 && !g.filed[j] {
			return false
		}
	}
	return true
}

// elect verifies the filed batches against the election stakes, every
// proof in one signature batch, consumes them, sets the leader (§3.4.3)
// and emits leader.elected. A stake-0 governor's batch is taken as empty
// whatever it sent; a staked one missing fails with a wrapped
// consensus.ErrIncompleteElection naming it; a bad batch is a hard error.
func (g *Governor) elect() error {
	defer clearTickets(g.tickets, g.filed)
	el, err := consensus.NewElection(g.round, g.prevHash, g.pubs, g.electing)
	if err != nil {
		return err
	}
	var missing []identity.NodeID
	govs := make([]int, 0, len(g.electing))
	batches := make([][]consensus.Ticket, 0, len(g.electing))
	for j, s := range g.electing {
		if s > 0 && !g.filed[j] {
			missing = append(missing, g.governorIDs[j])
			continue
		}
		var tickets []consensus.Ticket
		if s > 0 {
			tickets = g.tickets[j]
		}
		govs, batches = append(govs, j), append(batches, tickets)
	}
	if j, err := el.SubmitAll(govs, batches); err != nil {
		return fmt.Errorf("%s round %d tickets from %s: %w", g.ID(), g.round, g.governorIDs[j], err)
	}
	leader, _, err := el.Leader()
	if err != nil {
		return fmt.Errorf("%s round %d election, no ticket batch from %v: %w", g.ID(), g.round, missing, err)
	}
	g.leader = leader
	// One shape whichever driver stepped: each governor reports, under
	// its own ID, the node it elected.
	if g.events != nil {
		g.events.Emit(events.TypeLeaderElected, "", g.round, string(g.ID()),
			slog.String("leader", string(g.governorIDs[leader])))
	}
	return nil
}

// propose is the leader's step: sign B = (s, TXList, h) over the
// screened records and multicast it to every governor and provider.
func (g *Governor) propose(out Sender) error {
	frame, err := g.buildBlock(g.records)
	g.records = nil
	if err != nil {
		return err
	}
	return out.Multicast(g.ID(), g.blockTo, network.KindBlock, frame)
}

// adoptStashed empties the stash, accepting the blocks proposed by
// governor `leader` (AcceptBlock is idempotent on a redelivery) and
// counting the rest: undecodable frames, and frames from anyone else —
// a stale duplicate, or a proposer who was not elected.
func (g *Governor) adoptStashed(leader int) error {
	stash := g.blocks
	g.blocks = nil
	for _, payload := range stash {
		b, rcv, err := ledger.ReceiveBlock(payload, g.merkle)
		if err != nil {
			g.reg.CounterVec("node.blocks_ignored_total", "reason").With("decode").Inc()
			continue
		}
		if leader < 0 || b.Proposer != g.governorIDs[leader] {
			g.reg.CounterVec("node.blocks_ignored_total", "reason").With("not_leader").Inc()
			continue
		}
		if err := g.accept(b, rcv, payload); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint makes the governor's recovery state durable: a ledger
// snapshot at the current head carrying GovernorState, after which —
// when prune is set — chain segments wholly behind it are deleted. A
// no-op for an in-memory replica. A nil reputation means the governor's
// live table; shard re-homing passes the migrated one.
func (g *Governor) Checkpoint(reputation []byte, prune bool) error {
	if g.fs == nil {
		return nil
	}
	if reputation == nil {
		reputation = g.table.Snapshot()
	}
	app := GovernorState{Round: g.round, Reputation: reputation, Stakes: g.stakes, Nonces: g.nextNonce}.Encode()
	if _, err := g.fs.WriteSnapshot(app); err != nil {
		return fmt.Errorf("%s snapshot: %w", g.ID(), err)
	}
	g.reg.Counter("ledger.snapshots_total").Inc()
	if !prune {
		return nil
	}
	n, err := g.fs.Prune()
	g.reg.Counter("ledger.segments_pruned_total").Add(int64(n))
	if err != nil {
		return fmt.Errorf("%s prune: %w", g.ID(), err)
	}
	return nil
}

// maybeCheckpoint is the snapshot cadence, run as each round ends: once
// the chain has grown SnapshotEvery blocks past the latest snapshot, it
// checkpoints and prunes. A round that committed nothing leaves the
// height, and so the decision, unchanged. A no-op when SnapshotEvery ≤ 0
// or the replica is in memory.
func (g *Governor) maybeCheckpoint() error {
	every := g.cfg.SnapshotEvery
	if g.fs == nil || every <= 0 {
		return nil
	}
	if anchor, _, _ := g.fs.SnapshotAnchor(); g.fs.Height() < anchor+uint64(every) {
		return nil
	}
	return g.Checkpoint(nil, true)
}

// restore, run by NewGovernor, loads the latest Checkpoint into the
// governor's reputation table, stake vector and next nonces; without one
// it keeps the configured stakes. A checkpoint that does not decode or does not fit
// is an error: re-trusting every collector equally would be a silent
// reputation reset.
func (g *Governor) restore() error {
	if g.fs == nil {
		return nil
	}
	snap, found := g.fs.LatestSnapshot()
	if !found || len(snap.App) == 0 {
		return nil
	}
	st, err := DecodeGovernorState(snap.App)
	if err == nil {
		err = g.table.RestoreSnapshot(st.Reputation)
	}
	if err == nil && len(st.Stakes) > 0 && len(st.Stakes) != len(g.stakes) {
		err = fmt.Errorf("%d stakes for %d governors: %w", len(st.Stakes), len(g.stakes), ErrBadMessage)
	}
	if err != nil {
		return fmt.Errorf("%s ledger snapshot state: %w", g.ID(), err)
	}
	if len(st.Stakes) > 0 {
		copy(g.stakes, st.Stakes)
		copy(g.nextNonce, st.Nonces)
	}
	g.settled = st.Round
	return nil
}
