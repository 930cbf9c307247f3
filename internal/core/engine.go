// Package core wires the paper's full protocol together: the roster,
// the synchronous bus, provider/collector/governor nodes, the
// reputation mechanism, PoS/VRF leader election, block production, and
// the stake-transform sub-protocol. One Engine is one alliance chain.
//
// A round follows §3.1's three phases:
//
//	Collecting  — providers stage transactions (callers invoke
//	              SubmitTx before RunRound); the round drains them into
//	              each provider's queue, and each provider's Step signs
//	              its share once at the round's opening and broadcasts
//	              it to its linked collectors;
//	Uploading   — collectors label and upload to all governors;
//	Processing  — governors screen with the reputation mechanism,
//	              elect a leader by per-stake-unit VRF, and the leader
//	              proposes the block every replica appends. Providers
//	              observe the block and argue mislabeled transactions,
//	              which resolve in the next round.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repchain/internal/codec"
	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/mempool"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadConfig reports an invalid engine configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrDisagreement reports replicas disagreeing on a round's
	// outcome — a violated Agreement property.
	ErrDisagreement = errors.New("core: replica disagreement")
	// ErrRoundAborted reports a round that could not commit a block
	// because message loss left the live governors without a complete
	// election or any copy of the proposed block. The abort is
	// recoverable: no replica appended anything, so callers simply run
	// the next round — throughput degrades, safety holds.
	ErrRoundAborted = errors.New("core: round aborted under faults")
	// ErrNodeDown reports an operation on a crashed node, or a crash or
	// restart that does not apply (already down, already live, index out
	// of range).
	ErrNodeDown = errors.New("core: node down")
	// ErrBacklog reports a submission rejected because the provider is
	// at its ingress mempool cap — backpressure, not loss. Run a round to
	// drain the backlog and resubmit.
	ErrBacklog = errors.New("core: mempool backlog")
	// ErrClosed reports an operation on a closed engine.
	ErrClosed = errors.New("core: engine closed")
	// ErrUnknownProvider reports a submission for a provider index
	// outside the roster.
	ErrUnknownProvider = errors.New("core: unknown provider")
)

// Config assembles an alliance chain.
type Config struct {
	// Spec is the provider–collector topology. When Links is set,
	// only Spec.Providers and Spec.Collectors are used.
	Spec identity.TopologySpec
	// Links, when non-nil, overrides the regular topology with
	// explicit adjacency lists (provider index → collector indices) —
	// the paper's "the model can be easily extended to general
	// cases" (§3.1).
	Links [][]int
	// Governors is m, the number of governors.
	Governors int
	// Stakes are the initial stake units per governor; nil defaults
	// to one unit each.
	Stakes []uint64
	// Params tunes the reputation mechanism.
	Params reputation.Params
	// BlockLimit is b_limit; zero means unlimited. Every pool — the
	// ingress mempool and each governor's — drains at most BlockLimit
	// entries per round, oldest first, so overflow waits for the next
	// block on every node alike.
	BlockLimit int
	// ArgueWindow is U, the argue latency bound in unchecked
	// transactions per provider.
	ArgueWindow int
	// MaxDelay is Δ in bus ticks.
	MaxDelay int
	// Seed drives all deterministic randomness (keys, screening).
	Seed int64
	// Validator is validate(tx), shared by collectors and governors.
	Validator tx.Validator
	// Behaviors assigns a behaviour per collector index; zero entries
	// (or a nil slice) mean honest.
	Behaviors []node.Behavior
	// ChainDir, when non-empty, backs every governor's ledger replica
	// with a segment directory `governor-<j>.chain` under it, so chain,
	// reputation and stakes survive restarts. Empty means in memory.
	ChainDir string
	// EventCapacity, when positive, enables the event log: every node
	// appends its protocol facts — each transaction's sign, label,
	// upload, screen, pack and commit under its trace ID, leader
	// elections, reputation deltas with their arguments, quorum changes
	// — into a shared ring holding the most recent EventCapacity
	// events. The log is purely observational — it consumes no protocol
	// randomness and changes no ordering — so any run stays
	// byte-identical with it on or off. Zero disables it at zero
	// hot-path cost.
	EventCapacity int
	// MempoolCap bounds every mempool per provider. A provider at its
	// cap in the ingress mempool has submissions rejected with
	// ErrBacklog; a governor's mempool instead evicts that provider's
	// oldest pending transaction (counted, never silent). Zero means
	// unbounded.
	MempoolCap int
	// SnapshotEvery, with ChainDir set, writes an atomic snapshot of
	// each governor's recovery state (round counter, reputation table,
	// stake vector) each time its chain has grown N blocks past the last
	// one, and prunes chain segments fully behind the snapshot horizon.
	// Restart cost then scales with N, not with chain height, and disk
	// usage stays bounded. Zero disables snapshots (full-suffix replay,
	// no pruning). New refuses it without ChainDir.
	SnapshotEvery int
	// SegmentBytes overrides the chain segment roll threshold (bytes)
	// for file-backed stores. Zero keeps the ledger default (4 MiB).
	// New refuses it without ChainDir.
	SegmentBytes int64
}

// Engine is a running alliance chain.
type Engine struct {
	cfg    Config
	roster *identity.Roster
	bus    *network.Bus

	// members are how the round loop drives the nodes, each with its bus
	// endpoint: providers, then collectors (colls[c]), then governors
	// (govs[j]).
	providers   []*node.Provider
	collectors  []*node.Collector
	governors   []*node.Governor
	members     []member
	colls, govs []member

	round uint64

	// reg collects engine-level operational metrics: protocol anomaly
	// counters and snapshots of the per-key verdict memos' statistics
	// (crypto.VerifyStats).
	reg *metrics.Registry
	// events is the shared event log; nil when Config.EventCapacity is
	// zero.
	events *events.Log
	// stageSeconds is the per-stage round latency histogram family
	// (label "stage"), fed by the engine's own stages and each node's
	// node.StageTimer. Wall-clock observations only — never fed back
	// into protocol decisions, so determinism is untouched.
	stageSeconds *metrics.HistogramVec

	// ingress holds staged, still unqueued submissions; each round's
	// collecting phase drains it in arrival order into the providers'
	// queues. closed gates SubmitTx and RunRound after Close.
	ingress    *mempool.Pool[ingressTx]
	closed     bool
	mpAdmitted *metrics.Counter
	// drained is how many submissions the current round's drain took;
	// it sizes the round's fan-outs (workers). drainBuf is the drain's
	// scratch, reused every round and cleared after it.
	drained  int
	drainBuf []ingressTx
}

// ingressTx is one staged submission: the provider, the transaction
// awaiting its drain, and its ID.
type ingressTx struct {
	provider int
	tx       tx.Transaction
	id       crypto.Hash
}

// RoundResult summarizes one protocol round.
type RoundResult struct {
	// Serial is the new block's serial number.
	Serial uint64
	// Leader is the elected governor's index.
	Leader int
	// Hash is the committed block's hash, and Records its record count.
	Hash    crypto.Hash
	Records int
	// Uploads counts the labeled transactions collectors uploaded this
	// round (items, not batches).
	Uploads int
	// Argues counts provider argues issued after block publication.
	Argues int
	// StakeBlock is non-nil when a stake-transform block committed.
	StakeBlock *consensus.StakeBlock
}

// New builds and wires an engine. On an error, every governor it built
// is closed again.
func New(cfg Config) (_ *Engine, err error) {
	if cfg.Governors <= 0 {
		return nil, fmt.Errorf("governors %d: %w", cfg.Governors, ErrBadConfig)
	}
	if cfg.Validator == nil {
		return nil, fmt.Errorf("nil validator: %w", ErrBadConfig)
	}
	if cfg.MempoolCap < 0 {
		return nil, fmt.Errorf("mempool cap %d: %w", cfg.MempoolCap, ErrBadConfig)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	var topo *identity.Topology
	if cfg.Links != nil {
		topo, err = identity.NewTopologyFromLinks(cfg.Spec.Providers, cfg.Spec.Collectors, cfg.Links)
	} else {
		topo, err = identity.NewRegularTopology(cfg.Spec)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if cfg.Behaviors != nil && len(cfg.Behaviors) != topo.Collectors() {
		return nil, fmt.Errorf("%d behaviours for %d collectors: %w", len(cfg.Behaviors), topo.Collectors(), ErrBadConfig)
	}
	if cfg.Stakes != nil && len(cfg.Stakes) != cfg.Governors {
		return nil, fmt.Errorf("%d stakes for %d governors: %w", len(cfg.Stakes), cfg.Governors, ErrBadConfig)
	}

	seed := make([]byte, crypto.SeedSize)
	for i := 0; i < 8; i++ {
		seed[i] = byte(cfg.Seed >> (8 * i))
	}
	roster, err := identity.NewRoster(topo, cfg.Governors, seed)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		cfg:    cfg,
		roster: roster,
		bus:    network.NewBus(cfg.MaxDelay),
		reg:    metrics.NewRegistry(),
		events: events.NewLog(cfg.EventCapacity),
	}
	e.ingress = mempool.New[ingressTx](topo.Providers(), cfg.MempoolCap)
	e.stageSeconds = e.reg.HistogramVec("round.stage_seconds", metrics.DefBuckets, "stage")
	e.mpAdmitted = e.reg.Counter("mempool.admitted_total")
	governorIDs := identity.IDs(roster.Governors)

	// Providers.
	for k, mem := range roster.Providers {
		ep, err := e.bus.Register(mem.ID)
		if err != nil {
			return nil, err
		}
		collectorIDs := make([]identity.NodeID, 0, cfg.Spec.Degree)
		for _, c := range topo.CollectorsOf(k) {
			collectorIDs = append(collectorIDs, roster.Collectors[c].ID)
		}
		p := node.NewProvider(mem, &lockstep, collectorIDs, governorIDs)
		p.SetEvents(e.events)
		p.SetMetrics(e.reg)
		e.providers = append(e.providers, p)
		e.members = append(e.members, member{node: p, ep: ep, timer: node.StageTimer{Stages: e.stageSeconds}})
	}
	// Collectors.
	for c, mem := range roster.Collectors {
		ep, err := e.bus.Register(mem.ID)
		if err != nil {
			return nil, err
		}
		var behavior node.Behavior
		if cfg.Behaviors != nil {
			behavior = cfg.Behaviors[c]
		}
		col := node.NewCollector(mem, lockstep, roster, cfg.Validator, behavior, node.Seed(cfg.Seed, mem))
		col.SetEvents(e.events)
		e.collectors = append(e.collectors, col)
		e.members = append(e.members, member{node: col, ep: ep, timer: node.StageTimer{Stages: e.stageSeconds}})
	}
	// Governors. Each opens its replica under ChainDir and reloads its
	// checkpoint as it is built, so a restart keeps its learned weights,
	// stakes and nonces; the configured stakes only seed a chain that has
	// none.
	defer func() {
		if err != nil {
			for _, g := range e.governors {
				_ = g.Close()
			}
		}
	}()
	for _, mem := range roster.Governors {
		ep, err := e.bus.Register(mem.ID)
		if err != nil {
			return nil, err
		}
		gov, err := node.NewGovernor(node.GovernorConfig{
			Member:        mem,
			Clock:         lockstep,
			Roster:        roster,
			Params:        cfg.Params,
			Validator:     cfg.Validator,
			BlockLimit:    cfg.BlockLimit,
			ArgueWindow:   cfg.ArgueWindow,
			Seed:          node.Seed(cfg.Seed, mem),
			Stakes:        cfg.Stakes,
			StateDir:      cfg.ChainDir,
			SegmentBytes:  cfg.SegmentBytes,
			SnapshotEvery: cfg.SnapshotEvery,
			MempoolCap:    cfg.MempoolCap,
			Metrics:       e.reg,
			Events:        e.events,
		})
		if err != nil {
			return nil, err
		}
		e.governors = append(e.governors, gov)
		e.members = append(e.members, member{node: gov, ep: ep, base: gov.Store().Height(), timer: node.StageTimer{Stages: e.stageSeconds}})
		// Resume the round counter from a persisted chain so leader
		// election inputs stay unique across restarts.
		e.round = max(e.round, gov.Store().Height())
	}
	provs := len(e.providers)
	e.colls, e.govs = e.members[provs:provs+len(e.collectors)], e.members[provs+len(e.collectors):]
	return e, nil
}

// Close checkpoints every file-backed governor and releases its store.
// After Close, SubmitTx and RunRound fail with ErrClosed; Close itself
// is idempotent.
func (e *Engine) Close() error { return e.CloseMigrated(nil) }

// CloseMigrated is Close with the final checkpoint carrying the given
// per-governor reputation snapshots in place of the live tables': the
// hand-off from shard.Rehome to the engine it rebuilds over the
// post-move topology, whose tables no longer have this engine's shape.
func (e *Engine) CloseMigrated(reputation [][]byte) error {
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	for j, g := range e.governors {
		var rep []byte
		if reputation != nil {
			rep = reputation[j]
		}
		errs = append(errs, g.Checkpoint(rep, false))
	}
	for _, g := range e.governors {
		errs = append(errs, g.Close())
	}
	return errors.Join(errs...)
}

// Bus exposes the network for statistics and fault injection.
func (e *Engine) Bus() *network.Bus { return e.bus }

// Roster exposes the deployment membership.
func (e *Engine) Roster() *identity.Roster { return e.roster }

// Governor returns governor j.
func (e *Engine) Governor(j int) *node.Governor { return e.governors[j] }

// Provider returns provider k.
func (e *Engine) Provider(k int) *node.Provider { return e.providers[k] }

// Governors returns m.
func (e *Engine) Governors() int { return len(e.governors) }

// Stakes returns the stake vector the next election runs on, expelled
// governors at zero, as the first live governor (or, none live,
// governor 0) holds it.
func (e *Engine) Stakes() []uint64 {
	return e.governors[max(slices.IndexFunc(e.govs, func(m member) bool { return !m.down }), 0)].Stakes()
}

// Round returns the number of completed rounds.
func (e *Engine) Round() uint64 { return e.round }

// Events exposes the engine's event log; nil when Config.EventCapacity
// is zero.
func (e *Engine) Events() *events.Log { return e.events }

// observeStage records the wall-clock duration of one engine stage —
// the drain or the resync — into the "round.stage_seconds" histogram
// family and returns a fresh stage start. Purely observational — stage
// durations never feed back into protocol decisions.
func (e *Engine) observeStage(stage string, start time.Time) time.Time {
	now := time.Now()
	e.stageSeconds.With(stage).Observe(now.Sub(start).Seconds())
	return now
}

// Metrics exposes the engine's operational metrics registry: the
// DESIGN.md §4c catalogue's protocol, screening, mempool and chaos
// series, plus per-round snapshots of the process-wide verdict-memo
// counters (crypto.VerifyStats) and encoder pool.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// publishRoundMetrics updates the per-round gauges and counters after a
// committed round. The verdict-memo counters and encoder pool are
// process-wide, so under several live engines their gauges reflect
// combined activity.
func (e *Engine) publishRoundMetrics() {
	e.reg.Counter("engine.rounds_total").Inc()
	height := uint64(0)
	for _, g := range e.governors {
		height = max(height, g.Store().Height())
	}
	e.reg.Gauge("chain.height").Set(float64(height))
	hits, misses := crypto.VerifyStats()
	e.reg.Gauge("sigcache.hits").Set(float64(hits))
	e.reg.Gauge("sigcache.misses").Set(float64(misses))
	ps := codec.EncoderPoolStats()
	e.reg.Gauge("codec.pool_gets").Set(float64(ps.Gets))
	e.reg.Gauge("codec.pool_misses").Set(float64(ps.Misses))
}

// SubmitTx is SubmitBatch for one transaction, returning the staged
// transaction itself.
func (e *Engine) SubmitTx(k int, kind string, payload []byte, isValid bool) (tx.Transaction, error) {
	staged, _, err := e.stage(context.Background(), k, []node.Submission{{Kind: kind, Payload: payload, Valid: isValid}})
	if len(staged) == 0 {
		return tx.Transaction{}, err
	}
	return staged[0], nil
}

// SubmitBatch has provider k stage a batch of transactions in the
// ingress mempool; the next round's collecting phase queues them with
// the provider, which signs and broadcasts them at the round's opening.
// It admits exactly the prefix the provider's cap has room for and
// returns that prefix's transaction IDs, as staging hashed them, with an
// ErrBacklog-wrapping error when that is not the whole batch. The
// refused suffix is rejected before
// anything is staged, so a backpressured caller can simply run a round
// and resubmit it — no seq is consumed and nothing is recorded for it.
// ctx is checked once, before staging: a cancelled batch admits
// nothing.
func (e *Engine) SubmitBatch(ctx context.Context, k int, items []node.Submission) ([]crypto.Hash, error) {
	_, ids, err := e.stage(ctx, k, items)
	return ids, err
}

// stage is SubmitBatch, returning the admitted transactions with their
// IDs.
func (e *Engine) stage(ctx context.Context, k int, items []node.Submission) ([]tx.Transaction, []crypto.Hash, error) {
	if e.closed {
		return nil, nil, fmt.Errorf("submit: %w", ErrClosed)
	}
	if k < 0 || k >= len(e.providers) {
		return nil, nil, fmt.Errorf("provider %d of %d: %w", k, len(e.providers), ErrUnknownProvider)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var backlog error
	if room := e.ingress.Room(k); room < len(items) {
		items = items[:room]
		backlog = fmt.Errorf("provider %d ingress mempool full (cap %d): %w", k, e.ingress.Cap(), ErrBacklog)
	}
	txs, ids := e.providers[k].Stage(items, int64(e.bus.Now()))
	for i := range txs {
		if _, err := e.ingress.Add(k, ingressTx{provider: k, tx: txs[i], id: ids[i]}); err != nil {
			return nil, nil, err // unreachable within Room; defensive
		}
	}
	e.mpAdmitted.Add(int64(len(txs)))
	return txs, ids, backlog
}

// MempoolDepth reports how many staged submissions await the next
// round's drain.
func (e *Engine) MempoolDepth() int { return e.ingress.Len() }

// drainIngress takes the oldest staged submissions, at most BlockLimit
// of them (all with no limit), and queues each with its provider, in
// drain order: each provider signs its share as one batch at the
// round's opening. The rest stays staged for later rounds.
func (e *Engine) drainIngress() {
	e.drainBuf = e.ingress.AppendDrain(e.drainBuf[:0], e.cfg.BlockLimit)
	e.drained = len(e.drainBuf)
	for _, d := range e.drainBuf {
		e.providers[d.provider].Queue(d.tx, d.id)
	}
	clear(e.drainBuf) // pins no transaction past its round
}

// SubmitStakeTransfer is governor `from`'s TransferStake step: "governors
// related to the transaction should broadcast the signed transaction to
// all governors". An overdraft is refused here, wrapping
// consensus.ErrInsufficientStake.
func (e *Engine) SubmitStakeTransfer(from, to int, amount uint64) error {
	if from < 0 || from >= len(e.governors) || to < 0 || to >= len(e.governors) {
		return fmt.Errorf("transfer %d→%d: %w", from, to, ErrBadConfig)
	}
	return e.governors[from].TransferStake(to, amount, e.bus)
}

// lockstep is the engine's virtual clock: each deadline falls right
// after the bus tick that brings its inputs.
var lockstep = node.Clock{Round: time.Second}

// instants are a round's points on the lockstep clock as fractions of
// R: its opening (0⁺, its first nanosecond), the three deadlines inside
// it, and its end.
var instants = [...]float64{1e-9, node.DeadlineUpload, node.DeadlineScreen, node.DeadlineElect, 1}

// member is how the round loop drives a node: the node, its endpoint,
// the round its clock counts from (a governor's height at New), whether
// the failure detector holds it down (degrade.go), where its last Step
// left it, and its timer.
type member struct {
	node  node.Stepper
	ep    *network.Endpoint
	base  uint64
	down  bool
	p     node.Progress
	timer node.StageTimer
}

// RunRound executes the uploading and processing phases over whatever
// the collecting phase submitted, commits one block, and resolves
// provider argues triggered by the new block.
//
// Every fan-out below is deterministic at any GOMAXPROCS: nodes
// own their RNG streams and state, parallel stages buffer their
// outbound messages, and the engine replays the buffers onto the bus
// in node-index order — the exact order the sequential pipeline sends
// in. DESIGN.md §"Parallel round pipeline" carries the full argument.
//
// Under injected faults the round degrades instead of wedging: down
// nodes are excluded (see degrade.go), a governor that misses the
// block is resynced at the next round start, and a round that loses
// its election or every copy of the block fails with the recoverable
// ErrRoundAborted, leaving all replicas unchanged.
func (e *Engine) RunRound() (RoundResult, error) {
	return e.RunRoundCtx(context.Background())
}

// RunRoundCtx is RunRound with cancellation. The context is checked
// only at boundaries where abandoning the round leaves every replica
// consistent: before ingress drain, after resync but before the round
// counter advances, and after uploads land but before screening. Once
// screening starts the round runs to completion — aborting mid-screen
// would lose reputation updates that uploads already triggered.
// Cancellation surfaces as the context's error (use errors.Is against
// context.Canceled / DeadlineExceeded).
func (e *Engine) RunRoundCtx(ctx context.Context) (RoundResult, error) {
	if e.closed {
		return RoundResult{}, fmt.Errorf("run round: %w", ErrClosed)
	}
	res, err := e.runRoundCtx(ctx)
	if errors.Is(err, ErrRoundAborted) {
		e.reg.Counter("chaos.rounds_aborted").Inc()
	}
	return res, err
}

func (e *Engine) runRoundCtx(ctx context.Context) (RoundResult, error) {
	// Queue staged submissions with their providers, then bring every
	// live replica to a common head. The context is checked before both
	// and after: the next round signs the drained submissions.
	err := ctx.Err()
	if start := time.Now(); err == nil {
		e.drainIngress()
		start = e.observeStage("ingest", start)
		err = e.resyncGovernors()
		e.observeStage("resync", start)
	}
	if err = cmp.Or(err, ctx.Err()); err != nil {
		return RoundResult{}, err
	}
	e.round++
	e.reg.Counter("chaos.collector_missed_rounds").Add(int64(len(e.colls) - len(live(e.colls))))
	// A deadline inside the round opens with a tick landing what was
	// sent before it; a pass repeated at one instant ticks if messages
	// wait. The screen deadline's tick is the last safe abort point.
	res := RoundResult{Uploads: -e.uploads(), Argues: -e.argues()}
	for i, frac := range instants {
		for again, tick := true, i > 0 && frac < 1; again && err == nil; {
			if tick {
				e.bus.AdvancePastDelay()
			}
			if err = ctx.Err(); err == nil || frac != node.DeadlineScreen {
				again, tick, err = e.pass(frac)
			}
		}
	}
	if res.Uploads, res.Argues = res.Uploads+e.uploads(), res.Argues+e.argues(); err == nil {
		err = e.outcome(&res)
	}
	if err != nil {
		return RoundResult{}, err
	}
	e.publishRoundMetrics()
	return res, nil
}

// pass delivers at instant frac: it steps every ready node, the
// providers first, taking blocks as they come, then the collectors and
// governors; so a governor adopting a block also sees the argues it set
// off. Each node touches only its own endpoint, state, timer and send
// buffer, over fanOut's workers. An incomplete election aborts the
// round once every governor took its inbox. pass reports whether
// another pass is due at frac — a node ready — and whether messages
// wait.
func (e *Engine) pass(frac float64) (again, waiting bool, err error) {
	ready, _ := e.ready(frac, frac == instants[0])
	incomplete := make([]error, len(ready))
	split, _ := slices.BinarySearch(ready, len(e.providers))
	for lo, hi := 0, split; lo < len(ready) && err == nil; lo, hi = hi, len(ready) {
		err = e.fanOut(hi-lo, func(j int, out node.Sender) error {
			m, msgs := &e.members[ready[lo+j]], []network.Message(nil)
			if !m.down {
				msgs = m.ep.Receive()
			}
			p, err := m.timer.Step(m.p, func() (node.Progress, error) { return m.node.Step(lockstep.At(e.round-m.base, frac), msgs, out) })
			if m.p = p; errors.Is(err, consensus.ErrIncompleteElection) {
				incomplete[lo+j], err = err, nil
			}
			return err
		})
	}
	if err = cmp.Or(err, errors.Join(incomplete...)); errors.Is(err, consensus.ErrIncompleteElection) {
		err = fmt.Errorf("%w: %w", err, ErrRoundAborted)
	}
	ready, waiting = e.ready(frac, false)
	return len(ready) > 0, waiting, err
}

// ready lists the nodes that step at instant frac: each live one due,
// or holding messages it takes — when due, or with no deadline left in
// its round; until then they wait for its deadline, the lock-step
// schedule — and at the round's opening each down one, without
// messages, so it keeps the others' round. It also reports whether
// messages wait for any taker.
func (e *Engine) ready(frac float64, opening bool) (ready []int, waiting bool) {
	for i := range e.members {
		m := &e.members[i]
		due := !m.down && !m.p.WakeAt.After(lockstep.At(e.round-m.base, frac))
		waits := !m.down && (due || !m.p.WakeAt.Before(lockstep.At(e.round-m.base, 1))) && m.ep.Pending() > 0
		if waiting = waiting || waits; due || waits || m.down && opening {
			ready = append(ready, i)
		}
	}
	return ready, waiting
}

// uploads sums the items every collector has uploaded.
func (e *Engine) uploads() (n int) {
	for _, c := range e.collectors {
		n += c.Stats().Uploaded + c.Stats().Forged
	}
	return n
}

// argues sums the argues every provider has sent.
func (e *Engine) argues() (n int) {
	for _, p := range e.providers {
		n += p.Argues()
	}
	return n
}

// outcome fills in the round's leader, block and stake block once the
// live governors agree on them: one leader; some replica holds its
// block — a governor whose copy was lost to drops is counted, left one
// block behind and resynced at the next round start, and none holding
// it aborts the round; and every replica at the block's serial holds
// the same (Agreement; one behind is checked by AcceptBlock when
// resynced).
func (e *Engine) outcome(res *RoundResult) error {
	live := live(e.govs)
	leader, j := e.govs[live[0]].p.Leader, -1
	for _, i := range live {
		switch p := e.govs[i].p; {
		case p.Leader != leader:
			return fmt.Errorf("governor %d elected %d, governor %d elected %d: %w", i, p.Leader, live[0], leader, ErrDisagreement)
		case !p.Committed:
			e.reg.Counter("chaos.governor_missed_block").Inc()
		case j < 0:
			j = i
		}
	}
	if j < 0 {
		return fmt.Errorf("block %d reached no replica: %w", e.governors[leader].Store().Height()+1, ErrRoundAborted)
	}
	for _, g := range e.governors {
		if sb := g.StakeBlock(); sb != nil && sb.Round == e.round {
			res.StakeBlock = sb
		}
	}
	// Governor j committed the block this round, so it is j's head: no
	// replica decodes it here.
	ref := e.governors[j].Store()
	serial, head := ref.Height(), ref.HeadHash()
	var err error
	for i := 0; i < len(e.governors) && err == nil; i++ {
		store := e.governors[i].Store()
		if store.Height() < serial {
			continue
		}
		h := store.HeadHash()
		if store.Height() > serial {
			var blk ledger.Block
			blk, err = store.Get(serial)
			h = blk.Hash()
		}
		if err == nil && h != head {
			err = fmt.Errorf("block %d differs between governors %d and %d: %w", serial, j, i, ErrDisagreement)
		}
	}
	res.Leader, res.Serial, res.Hash, res.Records = leader, serial, head, e.governors[j].CommittedRecords()
	return err
}
