package node

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"repchain/internal/consensus"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/metrics"
	"repchain/internal/network"
)

// Each role's round (§3.1) is one transition, Step: a driver hands the
// node the messages it drained, the time and a Sender, and Step runs
// every step whose inputs are in or whose deadline has passed. For a
// governor, in the paper's order: open the round, screen, broadcast VRF
// tickets, elect, propose and commit when leading, else adopt the block,
// run the stake transform (stake.go), checkpoint on the snapshot
// cadence. A provider (provider.go) signs and broadcasts what was queued
// for it at the round's opening, then takes the block and argues; a
// collector (collector.go) files provider frames and uploads them at its
// deadline. Step does no network I/O, reads no clock and starts no
// goroutine. core.Engine steps an alliance in lock-step, each
// deadline right after the bus tick that brings its inputs;
// transport.RunNode steps one node whenever a frame arrives or its next
// deadline passes.
//
//	NewGovernor → Step* → Checkpoint → Close
//
// Under the paper's synchrony assumption every node owns a loosely
// synchronized clock, and a shared round duration R paces the round:
//
//	t0 + 0.00·R    providers broadcast the round's transactions
//	t0 + 0.30·R    deadline: collectors label and upload what arrived
//	t0 + 0.55·R    deadline: governors screen, then broadcast VRF tickets
//	t0 + 0.835·R   deadline: governors elect; the leader commits its block,
//	               then multicasts it to the other governors and the providers
//	t0 + 1.00·R    deadline: the round ends; a governor gives up on a
//	               missing block and stops the stake transform
//
// The nodes keep every mark; no driver paces one. A provider opens its
// round at the first mark; the collectors' deadline is their upload
// cutoff; a governor's only bounds the wait for an input that is late
// or lost. The gap before each exceeds the network's delivery bound Δ
// provided R is chosen accordingly. A round spans (start, end]; the
// first Step after its end finishes it — one short of its commit phase
// is abandoned — and opens the clock's round.

// Deadlines within a round, as fractions of R from its start.
const (
	DeadlineUpload = 0.30
	DeadlineScreen = 0.55
	DeadlineElect  = 0.835
)

// Clock fixes the shared round schedule.
type Clock struct {
	// Epoch starts the clock's first round; for a governor, the round
	// after its replica's head at NewGovernor, for a collector round 1.
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

// Phase is where a node stands in its round: over (a new node's phase;
// also after a failed election, a collector's upload, or a provider's
// block), a provider with its batch to sign, a collector filing frames
// for its upload, a governor awaiting the uploads, awaiting the tickets,
// leading with its block to propose, awaiting the block while the stake
// transform runs, a provider awaiting the block to argue over.
type Phase uint8

// The phases, in order.
const (
	PhaseOver Phase = iota
	PhaseSign
	PhaseUpload
	PhaseScreen
	PhaseElect
	PhasePack
	PhaseCommit
	PhaseArgue
)

// KindDown is a failure detector's verdict, handed to the governor (Step
// or Ingest) as a message from itself: a byte per governor, 1 for each
// held down.
// The next election runs with those at stake 0.
const KindDown = "detector.down"

// Progress is where a Step left the node. A provider or a collector
// reports only Round, Phase and WakeAt.
type Progress struct {
	Round     uint64
	Phase     Phase
	Leader    int  // -1 before the election
	Committed bool // the round's block is on this replica
	StakeDone bool // the last stake step had nothing left to do
	// WakeAt is when the node next has something to do unless a message
	// arrives; now when a step is held for the next Step.
	WakeAt time.Time
}

// Stepper is a node that sequences its own round: a Provider, a
// Collector or a Governor.
type Stepper interface {
	Step(now time.Time, msgs []network.Message, out Sender) (Progress, error)
}

// StageTimer turns one node's Steps into round.stage_seconds samples
// under either driver: a Step that moves the node to another stage ends
// the sample of the stage it left, the time its Steps took there. The
// stages: a provider's sign and argue (its block intake); a collector's
// upload; a governor's screen, elect, pack (with the leader's commit),
// commit (with the first stake step), stake, and checkpoint (the round's
// end).
type StageTimer struct {
	Stages *metrics.HistogramVec
	busy   time.Duration
}

var stageLabels = [...]string{PhaseSign: "sign", PhaseUpload: "upload", PhaseScreen: "screen", PhaseElect: "elect",
	PhasePack: "pack", PhaseCommit: "commit", PhaseArgue: "argue"}

// stage labels the work a Step from p does; "" for none.
func (p Progress) stage() string {
	if p.Phase == PhaseCommit && p.Committed {
		return "stake"
	}
	return stageLabels[p.Phase]
}

// Step times step, one Step of the node from before, accounts for it
// and returns what it returned.
func (t *StageTimer) Step(before Progress, step func() (Progress, error)) (Progress, error) {
	start := time.Now()
	after, err := step()
	if d := time.Since(start); before.Phase == PhaseCommit && after.Phase == PhaseOver {
		t.observe(before.stage())
		t.busy = d
		t.observe("checkpoint")
	} else if t.busy += d; after.Round != before.Round || after.stage() != before.stage() {
		t.observe(before.stage())
	}
	return after, err
}

func (t *StageTimer) observe(stage string) {
	if stage != "" {
		t.Stages.With(stage).Observe(t.busy.Seconds())
	}
	t.busy = 0
}

// Step moves the governor to the clock's round at now, files msgs, runs
// every step that is due and reports where that leaves the governor.
// Electing ends the leader's Step, and so does proposing, with the next
// step due at once: a driver can time them apart, and the block is out
// before the stake transform. An incomplete election, a wrapped
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
		if g.phase = PhaseCommit; g.leader != g.cfg.Member.Index {
			return time.Time{}, nil
		}
		g.phase = PhasePack
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

// begin opens round `round`: uploads still pending copy their payloads
// (ownCarried), the previous round's ticket batches and stake messages
// go, batches filed ahead for this one become its own, stashed block
// frames stay (the previous leader's may be among them).
func (g *Governor) begin(round uint64) {
	g.ownCarried()
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
	g.records, g.recordIDs = emptied(g.records), g.recordIDs[:0] // only a leader packs them, in their round
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
	var err error
	g.records, g.recordIDs, err = g.screenRound()
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

// elect verifies the filed batches against the election stakes in
// governor order, consumes them, sets the leader (§3.4.3)
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
	for j, s := range g.electing {
		if s > 0 && !g.filed[j] {
			missing = append(missing, g.governorIDs[j])
			continue
		}
		var tickets []consensus.Ticket
		if s > 0 {
			tickets = g.tickets[j]
		}
		if err := el.Submit(j, tickets); err != nil {
			return fmt.Errorf("%s round %d tickets from %s: %w", g.ID(), g.round, g.governorIDs[j], err)
		}
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
// screened records, commit it, and multicast it to the other governors
// and the providers.
func (g *Governor) propose(out Sender) error {
	frame, err := g.pack(g.records, g.recordIDs)
	g.records, g.recordIDs = emptied(g.records), g.recordIDs[:0]
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
		b, rcv, err := g.receive(payload)
		switch {
		case err != nil:
			g.reg.CounterVec("node.blocks_ignored_total", "reason").With("decode").Inc()
			err = nil
		case leader < 0 || b.Proposer != g.governorIDs[leader]:
			g.reg.CounterVec("node.blocks_ignored_total", "reason").With("not_leader").Inc()
		default:
			err = g.accept(b, rcv, payload)
		}
		g.adopting = emptied(g.adopting)
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint makes the governor's recovery state durable: a ledger
// snapshot at the current head carrying GovernorState, after which —
// when prune is set — chain segments wholly behind it are deleted. It
// returns once the snapshot is on disk. A no-op for an in-memory
// replica. A nil reputation means the governor's live table; shard
// re-homing passes the migrated one.
func (g *Governor) Checkpoint(reputation []byte, prune bool) error {
	if g.fs == nil {
		return nil
	}
	if err := g.settleCheckpoint(); err != nil {
		return err
	}
	if err := g.startCheckpoint(reputation, prune); err != nil {
		return err
	}
	return g.settleCheckpoint()
}

// maybeCheckpoint is the snapshot cadence, run as each round ends: once
// the chain has grown SnapshotEvery blocks past the latest capture —
// the write in flight or, with none, the latest snapshot — it collects
// that write, returning its error, and starts a checkpoint with a prune
// that runs behind the next round. The rounds in between neither wait
// for a write nor see its failure, which surfaces at the next due round
// end, Checkpoint or Close. A round that committed nothing leaves the
// height, and so the decision, unchanged. A no-op when SnapshotEvery ≤
// 0 or the replica is in memory.
func (g *Governor) maybeCheckpoint() error {
	every := g.cfg.SnapshotEvery
	if g.fs == nil || every <= 0 || g.fs.Height() < g.fs.CaptureHeight()+uint64(every) {
		return nil
	}
	if err := g.settleCheckpoint(); err != nil {
		return err
	}
	return g.startCheckpoint(nil, true)
}

// startCheckpoint captures the governor's state at its head and starts
// the snapshot write (ledger.FileStore.StartSnapshot).
func (g *Governor) startCheckpoint(reputation []byte, prune bool) error {
	if reputation == nil {
		reputation = g.table.Snapshot()
	}
	app := GovernorState{Round: g.round, Reputation: reputation, Stakes: g.stakes, Nonces: g.nextNonce}.Encode()
	if err := g.fs.StartSnapshot(app, prune); err != nil {
		return fmt.Errorf("%s snapshot: %w", g.ID(), err)
	}
	g.reg.Counter("ledger.snapshots_total").Inc()
	return nil
}

// settleCheckpoint waits for the checkpoint write in flight, if any,
// counts the segments it pruned and returns its error.
func (g *Governor) settleCheckpoint() error {
	n, err := g.fs.WaitSnapshot()
	g.reg.Counter("ledger.segments_pruned_total").Add(int64(n))
	if err != nil {
		return fmt.Errorf("%s snapshot: %w", g.ID(), err)
	}
	return nil
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
