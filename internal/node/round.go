package node

import (
	"fmt"
	"log/slog"
	"slices"

	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
)

// GovernorRound is the governor's half of a round (§3.1 processing
// phase) as one stepper: screen the uploads, broadcast VRF tickets,
// elect, propose when leading, adopt the block, run the stake transform
// (stake.go), checkpoint on the snapshot cadence. It is the protocol and nothing else — no I/O,
// no clock, no concurrency of its own. A driver hands it the messages it drained and a Sender and
// decides when each step runs: core.Engine steps a whole alliance in
// lock-step on bus ticks, transport.RunNode one governor as soon as each
// step's inputs are on file (UploadsComplete, TicketsComplete, Adopt),
// with a wall-clock deadline for a missing one.
//
//	Begin → Ingest* → Screen → SendTickets → Ingest* → Elect →
//	[Propose] → Ingest* → Adopt → (Ingest* → StakeStep)* → MaybeCheckpoint
//
// Ingest files ticket batches, block frames and stake messages whenever
// they arrive and the step that needs them consumes them, so a frame
// that lands in the "wrong" drain is never lost.
type GovernorRound struct {
	gov         *Governor
	governorIDs []identity.NodeID
	pubs        []crypto.PublicKey
	blockTo     []identity.NodeID // governors, then providers

	round uint64
	// prevHash and baseHeight are the chain head the round's tickets
	// were made over; Adopt reports a commit once the chain outgrows it.
	prevHash   crypto.Hash
	baseHeight uint64
	records    []ledger.Record
	// tickets[j] is the first batch governor j sent for this round, and
	// next[j] the first for the round after, from a peer already there.
	tickets, next    [][]consensus.Ticket
	filed, nextFiled []bool
	// blocks stashes block frames until the step that knows which
	// leader's signature to demand of them.
	blocks             [][]byte
	leader, prevLeader int

	// Stake state (stake.go): the committed vector and each payer's next
	// nonce, both checkpointed; expelled[j], the evidence that expelled
	// governor j; the filed transfers, sorted by (payer, nonce); settled,
	// the round of the last stake block applied or checkpoint restored.
	stakes, nextNonce []uint64
	expelled          []*consensus.Evidence
	transfers         []consensus.StakeTx
	settled           uint64
	// This round's transform: the leader's proposal as filed, what this
	// governor did with it, the endorsements filed by governor (leader
	// only). endorsed is the last proposal it endorsed and has no block
	// for; applied is the last block it applied.
	proposal, endorsed                     *consensus.StateProposal
	proposed, answered, assembled, corrupt bool
	endorsements                           []consensus.Endorsement
	applied                                *consensus.StakeBlock

	reg *metrics.Registry
}

// NewGovernorRound wraps gov in a round stepper for an alliance of
// governorIDs (public keys pubs, both in index order) and providerIDs,
// the block's other recipients, holding stakes until Restore loads a
// checkpoint. Counters land in gov's Metrics registry.
func NewGovernorRound(gov *Governor, governorIDs []identity.NodeID, pubs []crypto.PublicKey, providerIDs []identity.NodeID, stakes []uint64) *GovernorRound {
	reg := gov.cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &GovernorRound{
		gov:          gov,
		governorIDs:  governorIDs,
		pubs:         pubs,
		blockTo:      append(append([]identity.NodeID(nil), governorIDs...), providerIDs...),
		round:        gov.store.Height(),
		tickets:      make([][]consensus.Ticket, len(governorIDs)),
		next:         make([][]consensus.Ticket, len(governorIDs)),
		filed:        make([]bool, len(governorIDs)),
		nextFiled:    make([]bool, len(governorIDs)),
		leader:       -1,
		prevLeader:   -1,
		stakes:       slices.Clone(stakes),
		nextNonce:    make([]uint64, len(governorIDs)),
		expelled:     make([]*consensus.Evidence, len(governorIDs)),
		endorsements: make([]consensus.Endorsement, len(governorIDs)),
		reg:          reg,
	}
}

// Begin opens round `round`. Ticket batches and the stake messages
// filed for the previous round are dropped, and the batches filed ahead
// for this one become its own; stashed block frames are kept, because
// the previous leader's block may still be among them.
func (r *GovernorRound) Begin(round uint64) {
	ahead := round == r.round+1
	r.round = round
	r.gov.round = round
	r.prevLeader, r.leader = r.leader, -1
	r.clearRound()
	if ahead {
		r.tickets, r.next = r.next, r.tickets
		r.filed, r.nextFiled = r.nextFiled, r.filed
	} else {
		clearTickets(r.next, r.nextFiled)
	}
}

// Purge forgets everything volatile a crash would lose: filed ticket
// batches and stake messages, and stashed block frames.
func (r *GovernorRound) Purge() {
	r.clearRound()
	clearTickets(r.next, r.nextFiled)
	r.blocks = nil
}

func (r *GovernorRound) clearRound() {
	clearTickets(r.tickets, r.filed)
	r.proposal, r.proposed, r.answered, r.assembled = nil, false, false, false
	clear(r.endorsements)
}

func clearTickets(tickets [][]consensus.Ticket, filed []bool) {
	clear(tickets)
	clear(filed)
}

// Ingest consumes drained messages: uploads and argues pass through the
// governor's HandleBatch, ticket batches are filed under their sender and
// round (this one or the next), block frames are stashed, stake messages
// are filed or, for a stake block, applied (stake.go). A ticket batch
// that is not filed — unknown sender, undecodable, for any other round,
// or a sender's second for its round (first wins) — bumps its
// election.vrf_* counter; an unused stake message,
// node.stake_ignored_total.
func (r *GovernorRound) Ingest(msgs []network.Message) error {
	rest, err := r.gov.HandleBatch(msgs)
	if err != nil {
		return err
	}
	for _, m := range rest {
		switch m.Kind {
		case network.KindVRF:
			r.fileTickets(m)
		case network.KindBlock:
			r.blocks = append(r.blocks, m.Payload)
		default:
			r.fileStake(m)
		}
	}
	return nil
}

func (r *GovernorRound) fileTickets(m network.Message) {
	sender := slices.Index(r.governorIDs, m.From)
	round, tickets, err := consensus.DecodeRoundTickets(m.Payload)
	// A peer that finished this round first may already send the next
	// round's batch; it waits in next until Begin.
	batches, filed := r.tickets, r.filed
	if round == r.round+1 {
		batches, filed = r.next, r.nextFiled
	}
	switch {
	case sender < 0:
		r.reg.Counter("election.vrf_unknown_sender").Inc()
	case err != nil:
		r.reg.Counter("election.vrf_malformed").Inc()
	case round != r.round && round != r.round+1:
		r.reg.Counter("election.vrf_stale_round").Inc()
	case filed[sender]:
		r.reg.Counter("election.vrf_duplicate_batch").Inc()
	default:
		batches[sender], filed[sender] = tickets, true
	}
}

// UploadsComplete reports whether every collector has a verified upload
// batch tagged with this round or a later one on file, i.e. whether
// Screen would see the whole round. A collector with nothing to upload
// still sends an empty batch, so only a late or lost one keeps this
// false.
func (r *GovernorRound) UploadsComplete() bool {
	for _, got := range r.gov.uploadRound {
		if got < r.round {
			return false
		}
	}
	return true
}

// Screen runs the screening step over everything ingested so far. A
// previous-round block that arrived after its Adopt gave up is
// committed first, so this round's tickets are made over the head the
// rest of the alliance already has.
func (r *GovernorRound) Screen() error {
	if err := r.adoptStashed(r.prevLeader); err != nil {
		return err
	}
	if err := r.gov.ProcessArgues(); err != nil {
		return err
	}
	records, err := r.gov.ScreenRound()
	r.records = records
	return err
}

// SendTickets evaluates the governor's VRF once per stake unit over the
// current chain head and multicasts the round-tagged batch to every
// governor (itself included). stake 0 sends an empty batch.
func (r *GovernorRound) SendTickets(stake uint64, out Sender) error {
	r.prevHash = crypto.ZeroHash
	if head, err := r.gov.store.Head(); err == nil {
		r.prevHash = head.Hash()
	}
	r.baseHeight = r.gov.store.Height()
	tickets := consensus.MakeTickets(r.gov.cfg.Member.PrivateKey, r.prevHash, r.round, r.gov.Index(), stake)
	return out.Multicast(r.gov.ID(), r.governorIDs, network.KindVRF, consensus.EncodeRoundTickets(r.round, tickets))
}

// TicketsComplete reports whether every governor holding stake has a
// batch on file, i.e. whether Elect can succeed.
func (r *GovernorRound) TicketsComplete(stakes []uint64) bool {
	for j, s := range stakes {
		if s > 0 && !r.filed[j] {
			return false
		}
	}
	return true
}

// Elect verifies the filed ticket batches against stakes and returns
// the leader (§3.4.3), consuming the batches, and emits the governor's
// leader.elected event. A governor with stake 0
// has nothing to prove: its empty batch is submitted locally, whatever
// it sent. A staked governor with no batch on file fails the election
// with a wrapped consensus.ErrIncompleteElection naming it; a batch
// that fails verification is a hard error.
func (r *GovernorRound) Elect(stakes []uint64) (int, error) {
	defer clearTickets(r.tickets, r.filed)
	el, err := consensus.NewElection(r.round, r.prevHash, r.pubs, stakes)
	if err != nil {
		return -1, err
	}
	var missing []identity.NodeID
	for j, s := range stakes {
		if s > 0 && !r.filed[j] {
			missing = append(missing, r.governorIDs[j])
			continue
		}
		var tickets []consensus.Ticket
		if s > 0 {
			tickets = r.tickets[j]
		}
		if err := el.Submit(j, tickets); err != nil {
			return -1, fmt.Errorf("%s round %d tickets from %s: %w", r.gov.ID(), r.round, r.governorIDs[j], err)
		}
	}
	leader, _, err := el.Leader()
	if err != nil {
		return -1, fmt.Errorf("%s round %d election, no ticket batch from %v: %w", r.gov.ID(), r.round, missing, err)
	}
	r.leader = leader
	// One shape whichever driver stepped: each governor reports, under
	// its own ID, the node it elected.
	if r.gov.events != nil {
		r.gov.events.Emit(events.TypeLeaderElected, "", r.round, string(r.gov.ID()),
			slog.String("leader", string(r.governorIDs[leader])))
	}
	return leader, nil
}

// Propose is the leader's step: assemble B = (s, TXList, h) from the
// round's screened records, sign it, and multicast it to every governor
// and provider. Only the governor Elect named calls it.
func (r *GovernorRound) Propose(out Sender) (ledger.Block, error) {
	block, err := r.gov.BuildBlock(r.records)
	r.records = nil
	if err != nil {
		return ledger.Block{}, err
	}
	return block, out.Multicast(r.gov.ID(), r.blockTo, network.KindBlock, block.EncodeBytes())
}

// Adopt commits the stashed block frames proposed by the round's
// elected leader and reports whether the chain has grown past the head
// the round started on. False is not an error — the frame may still be
// in flight: ingest and call again, or leave it to the next Screen.
func (r *GovernorRound) Adopt() (bool, error) {
	if err := r.adoptStashed(r.leader); err != nil {
		return false, err
	}
	return r.gov.store.Height() > r.baseHeight, nil
}

// adoptStashed empties the stash, accepting the blocks proposed by
// governor `leader` (AcceptBlock is idempotent on a redelivery) and
// counting the rest: undecodable frames, and frames from anyone else —
// a stale duplicate, or a proposer who was not elected.
func (r *GovernorRound) adoptStashed(leader int) error {
	stash := r.blocks
	r.blocks = nil
	for _, payload := range stash {
		b, err := ledger.DecodeBlockBytes(payload)
		if err != nil {
			r.reg.CounterVec("node.blocks_ignored_total", "reason").With("decode").Inc()
			continue
		}
		if leader < 0 || b.Proposer != r.governorIDs[leader] {
			r.reg.CounterVec("node.blocks_ignored_total", "reason").With("not_leader").Inc()
			continue
		}
		if err := r.gov.AcceptBlock(b, r.governorIDs[leader], r.pubs[leader]); err != nil {
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
func (r *GovernorRound) Checkpoint(reputation []byte, prune bool) error {
	fs, ok := r.gov.store.(*ledger.FileStore)
	if !ok {
		return nil
	}
	if reputation == nil {
		reputation = r.gov.table.Snapshot()
	}
	app := GovernorState{Round: r.round, Reputation: reputation, Stakes: r.stakes, Nonces: r.nextNonce}.Encode()
	if _, err := fs.WriteSnapshot(app); err != nil {
		return fmt.Errorf("%s snapshot: %w", r.gov.ID(), err)
	}
	r.reg.Counter("ledger.snapshots_total").Inc()
	if !prune {
		return nil
	}
	n, err := fs.Prune()
	r.reg.Counter("ledger.segments_pruned_total").Add(int64(n))
	if err != nil {
		return fmt.Errorf("%s prune: %w", r.gov.ID(), err)
	}
	return nil
}

// MaybeCheckpoint is the snapshot cadence, called after every round:
// once the chain has grown every blocks past the latest snapshot, it
// checkpoints and prunes. A round that committed nothing leaves the
// height, and so the decision, unchanged. A no-op when every ≤ 0 or
// the replica is in memory.
func (r *GovernorRound) MaybeCheckpoint(every int) error {
	fs, ok := r.gov.store.(*ledger.FileStore)
	if !ok || every <= 0 {
		return nil
	}
	if anchor, _, _ := fs.SnapshotAnchor(); fs.Height() < anchor+uint64(every) {
		return nil
	}
	return r.Checkpoint(nil, true)
}

// Restore loads the latest Checkpoint into the governor's reputation
// table, stake vector and next nonces; without one it keeps the stakes
// it was built with. A checkpoint that does not decode or does not fit
// is an error: re-trusting every collector equally would be a silent
// reputation reset.
func (r *GovernorRound) Restore() error {
	fs, ok := r.gov.store.(*ledger.FileStore)
	if !ok {
		return nil
	}
	snap, found := fs.LatestSnapshot()
	if !found || len(snap.App) == 0 {
		return nil
	}
	st, err := DecodeGovernorState(snap.App)
	if err == nil {
		err = r.gov.table.RestoreSnapshot(st.Reputation)
	}
	if err == nil && len(st.Stakes) > 0 && len(st.Stakes) != len(r.stakes) {
		err = fmt.Errorf("%d stakes for %d governors: %w", len(st.Stakes), len(r.stakes), ErrBadMessage)
	}
	if err != nil {
		return fmt.Errorf("%s ledger snapshot state: %w", r.gov.ID(), err)
	}
	if len(st.Stakes) > 0 {
		copy(r.stakes, st.Stakes)
		clear(r.nextNonce)
		copy(r.nextNonce, st.Nonces)
	}
	r.settled = st.Round
	return nil
}
