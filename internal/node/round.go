package node

import (
	"fmt"
	"log/slog"
	"slices"

	"repchain/internal/consensus"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
)

// The governor's half of a round (§3.1 processing phase) as steps:
// screen the uploads, broadcast VRF tickets, elect, propose when
// leading, adopt the block, run the stake transform (stake.go),
// checkpoint on the snapshot cadence. They are the protocol and the
// governor's own replica — no network, no clock, no concurrency of their
// own: NewGovernor opens the replica and restores its checkpoint, Close
// releases it. A driver hands the governor the messages it drained and a
// Sender and decides only when each step runs: core.Engine steps a whole
// alliance in lock-step on bus ticks, transport.RunNode one governor as
// soon as each step's inputs are on file (UploadsComplete,
// TicketsComplete, Adopt), with a wall-clock deadline for a missing one.
//
//	NewGovernor → (Begin → Ingest* → Screen → SendTickets → Ingest* →
//	Elect → [Propose] → Ingest* → Adopt → (Ingest* → StakeStep)* →
//	MaybeCheckpoint)* → Checkpoint → Close
//
// Ingest files ticket batches, block frames and stake messages whenever
// they arrive and the step that needs them consumes them, so a frame
// that lands in the "wrong" drain is never lost.

// Begin opens round `round`. Ticket batches and the stake messages
// filed for the previous round are dropped, and the batches filed ahead
// for this one become its own; stashed block frames are kept, because
// the previous leader's block may still be among them.
func (g *Governor) Begin(round uint64) {
	ahead := round == g.round+1
	g.round = round
	g.prevLeader, g.leader = g.leader, -1
	g.clearRound()
	if ahead {
		g.tickets, g.next = g.next, g.tickets
		g.filed, g.nextFiled = g.nextFiled, g.filed
	} else {
		clearTickets(g.next, g.nextFiled)
	}
}

// Purge forgets everything volatile a crash would lose: filed ticket
// batches and stake messages, and stashed block frames.
func (g *Governor) Purge() {
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

// Ingest consumes drained messages: uploads and argues pass through
// handleBatch, ticket batches are filed under their sender and
// round (this one or the next), block frames are stashed, stake messages
// are filed or, for a stake block, applied (stake.go). A ticket batch
// that is not filed — unknown sender, undecodable, for any other round,
// or a sender's second for its round (first wins) — bumps its
// election.vrf_* counter; an unused stake message,
// node.stake_ignored_total.
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
	// round's batch; it waits in next until Begin.
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

// UploadsComplete reports whether every collector has a verified upload
// batch tagged with this round or a later one on file, i.e. whether
// Screen would see the whole round. A collector with nothing to upload
// still sends an empty batch, so only a late or lost one keeps this
// false.
func (g *Governor) UploadsComplete() bool {
	for _, got := range g.uploadRound {
		if got < g.round {
			return false
		}
	}
	return true
}

// Screen runs the screening step over everything ingested so far. A
// previous-round block that arrived after its Adopt gave up is
// committed first, so this round's tickets are made over the head the
// rest of the alliance already has.
func (g *Governor) Screen() error {
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

// SendTickets evaluates the governor's VRF once per stake unit over the
// current chain head and multicasts the round-tagged batch to every
// governor (itself included). stake 0 sends an empty batch.
func (g *Governor) SendTickets(stake uint64, out Sender) error {
	g.prevHash = g.store.HeadHash()
	g.baseHeight = g.store.Height()
	tickets := consensus.MakeTickets(g.cfg.Member.PrivateKey, g.prevHash, g.round, g.Index(), stake)
	return out.Multicast(g.ID(), g.governorIDs, network.KindVRF, consensus.EncodeRoundTickets(g.round, tickets))
}

// TicketsComplete reports whether every governor holding stake has a
// batch on file, i.e. whether Elect can succeed.
func (g *Governor) TicketsComplete(stakes []uint64) bool {
	for j, s := range stakes {
		if s > 0 && !g.filed[j] {
			return false
		}
	}
	return true
}

// Elect verifies the filed ticket batches against stakes, every proof
// in one signature batch, and returns the leader (§3.4.3), consuming the
// batches, and emits the governor's leader.elected event. A governor
// with stake 0 has nothing to prove: its empty batch is submitted
// locally, whatever it sent. A staked governor with no batch on file
// fails the election with a wrapped consensus.ErrIncompleteElection
// naming it; a batch that fails verification is a hard error.
func (g *Governor) Elect(stakes []uint64) (int, error) {
	defer clearTickets(g.tickets, g.filed)
	el, err := consensus.NewElection(g.round, g.prevHash, g.pubs, stakes)
	if err != nil {
		return -1, err
	}
	var missing []identity.NodeID
	govs := make([]int, 0, len(stakes))
	batches := make([][]consensus.Ticket, 0, len(stakes))
	for j, s := range stakes {
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
		return -1, fmt.Errorf("%s round %d tickets from %s: %w", g.ID(), g.round, g.governorIDs[j], err)
	}
	leader, _, err := el.Leader()
	if err != nil {
		return -1, fmt.Errorf("%s round %d election, no ticket batch from %v: %w", g.ID(), g.round, missing, err)
	}
	g.leader = leader
	// One shape whichever driver stepped: each governor reports, under
	// its own ID, the node it elected.
	if g.events != nil {
		g.events.Emit(events.TypeLeaderElected, "", g.round, string(g.ID()),
			slog.String("leader", string(g.governorIDs[leader])))
	}
	return leader, nil
}

// Propose is the leader's step: assemble B = (s, TXList, h) from the
// round's screened records, sign it, and multicast it to every governor
// and provider. Only the governor Elect named calls it.
func (g *Governor) Propose(out Sender) (ledger.Block, error) {
	block, err := g.buildBlock(g.records)
	g.records = nil
	if err != nil {
		return ledger.Block{}, err
	}
	return block, out.Multicast(g.ID(), g.blockTo, network.KindBlock, block.EncodeBytes())
}

// Adopt commits the stashed block frames proposed by the round's
// elected leader and reports whether the chain has grown past the head
// the round started on. False is not an error — the frame may still be
// in flight: ingest and call again, or leave it to the next Screen.
func (g *Governor) Adopt() (bool, error) {
	if err := g.adoptStashed(g.leader); err != nil {
		return false, err
	}
	return g.store.Height() > g.baseHeight, nil
}

// adoptStashed empties the stash, accepting the blocks proposed by
// governor `leader` (AcceptBlock is idempotent on a redelivery) and
// counting the rest: undecodable frames, and frames from anyone else —
// a stale duplicate, or a proposer who was not elected.
func (g *Governor) adoptStashed(leader int) error {
	stash := g.blocks
	g.blocks = nil
	for _, payload := range stash {
		b, err := ledger.DecodeBlockBytes(payload)
		if err != nil {
			g.reg.CounterVec("node.blocks_ignored_total", "reason").With("decode").Inc()
			continue
		}
		if leader < 0 || b.Proposer != g.governorIDs[leader] {
			g.reg.CounterVec("node.blocks_ignored_total", "reason").With("not_leader").Inc()
			continue
		}
		if err := g.AcceptBlock(b); err != nil {
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

// MaybeCheckpoint is the snapshot cadence, called after every round:
// once the chain has grown SnapshotEvery blocks past the latest
// snapshot, it checkpoints and prunes. A round that committed nothing
// leaves the height, and so the decision, unchanged. A no-op when
// SnapshotEvery ≤ 0 or the replica is in memory.
func (g *Governor) MaybeCheckpoint() error {
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
