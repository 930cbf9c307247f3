// Package core wires the paper's full protocol together: the roster,
// the synchronous bus, provider/collector/governor nodes, the
// reputation mechanism, PoS/VRF leader election, block production, and
// the stake-transform sub-protocol. One Engine is one alliance chain.
//
// A round follows §3.1's three phases:
//
//	Collecting  — providers stage transactions (callers invoke
//	              SubmitTx before RunRound); the round drains them,
//	              and each provider signs what it drained once and
//	              broadcasts it to its linked collectors;
//	Uploading   — collectors label and upload to all governors;
//	Processing  — governors screen with the reputation mechanism,
//	              elect a leader by per-stake-unit VRF, and the leader
//	              proposes the block every replica appends. Providers
//	              observe the block and argue mislabeled transactions,
//	              which resolve in the next round.
package core

import (
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
	// Behaviors assigns a behaviour per collector index; nil entries
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

	providers  []*node.Provider
	collectors []*node.Collector
	// governors[j] sequences its own round from what endpoints[j] drains.
	governors []*node.Governor
	endpoints []*network.Endpoint

	// base[j] is governor j's height at New, where its rounds start.
	round uint64
	base  []uint64

	// collectorDown and governorDown are the engine's failure-detector
	// view: a down node is excluded from round fan-outs and quorums
	// until restarted (see CrashCollector and friends in degrade.go).
	collectorDown []bool
	governorDown  []bool

	// reg collects engine-level operational metrics: protocol anomaly
	// counters and snapshots of the shared signature-cache statistics.
	reg *metrics.Registry
	// events is the shared event log; nil when Config.EventCapacity is
	// zero.
	events *events.Log
	// stageSeconds is the per-stage round latency histogram family
	// (label "stage"). Wall-clock observations only — never fed back
	// into protocol decisions, so determinism is untouched.
	stageSeconds *metrics.HistogramVec

	// ingress holds staged, still unsigned submissions; each round's
	// collecting phase drains it in arrival order and signs what it
	// drained. closed gates SubmitTx and RunRound after Close.
	ingress    *mempool.Pool[ingressTx]
	closed     bool
	mpAdmitted *metrics.Counter
	// drained is how many submissions the current round's drain took;
	// it sizes the round's fan-outs (workers).
	drained int
}

// ingressTx is one staged submission: the provider, the transaction
// awaiting its signature and broadcast, and its ID.
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
	// Block is the committed block.
	Block ledger.Block
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
	e.collectorDown = make([]bool, topo.Collectors())
	e.governorDown = make([]bool, cfg.Governors)
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
		p := node.NewProvider(mem, ep, collectorIDs, governorIDs)
		p.SetEvents(e.events)
		p.SetMetrics(e.reg)
		e.providers = append(e.providers, p)
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
		col := node.NewCollector(mem, ep, roster, cfg.Validator, behavior, node.Seed(cfg.Seed, mem))
		col.SetEvents(e.events)
		e.collectors = append(e.collectors, col)
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
		e.governors, e.endpoints = append(e.governors, gov), append(e.endpoints, ep)
		e.base = append(e.base, gov.Store().Height())
		// Resume the round counter from a persisted chain so leader
		// election inputs stay unique across restarts.
		e.round = max(e.round, gov.Store().Height())
	}
	// Transactions submitted now will be processed by the next round.
	for _, p := range e.providers {
		p.SetRound(e.round + 1)
	}
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
	return e.governors[max(slices.Index(e.governorDown, false), 0)].Stakes()
}

// Round returns the number of completed rounds.
func (e *Engine) Round() uint64 { return e.round }

// Events exposes the engine's event log; nil when Config.EventCapacity
// is zero.
func (e *Engine) Events() *events.Log { return e.events }

// observeStage records the wall-clock duration of one round stage into
// the "round.stage_seconds" histogram family and returns a fresh stage
// start. Purely observational — stage durations never feed back into
// protocol decisions.
func (e *Engine) observeStage(stage string, start time.Time) time.Time {
	now := time.Now()
	e.stageSeconds.With(stage).Observe(now.Sub(start).Seconds())
	return now
}

// Metrics exposes the engine's operational metrics registry: the
// DESIGN.md §4c catalogue's protocol, screening, mempool and chaos
// series, plus per-round snapshots of the process-wide
// signature-verification cache and encoder pool.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// publishRoundMetrics updates the per-round gauges and counters after a
// committed round. The verification cache and encoder pool are
// process-wide, so under several live engines their gauges reflect
// combined activity.
func (e *Engine) publishRoundMetrics() {
	e.reg.Counter("engine.rounds_total").Inc()
	height := uint64(0)
	for _, g := range e.governors {
		height = max(height, g.Store().Height())
	}
	e.reg.Gauge("chain.height").Set(float64(height))
	hits, misses := crypto.DefaultVerifyCache.Stats()
	e.reg.Gauge("sigcache.hits").Set(float64(hits))
	e.reg.Gauge("sigcache.misses").Set(float64(misses))
	bs := crypto.DefaultVerifyCache.BatchStats()
	e.reg.Gauge("sigcache.batch_hits").Set(float64(bs.Hits))
	e.reg.Gauge("sigcache.batch_deduped").Set(float64(bs.Deduped))
	e.reg.Gauge("sigcache.batch_verified").Set(float64(bs.Verified))
	ps := codec.EncoderPoolStats()
	e.reg.Gauge("codec.pool_gets").Set(float64(ps.Gets))
	e.reg.Gauge("codec.pool_misses").Set(float64(ps.Misses))
}

// SubmitTx is SubmitBatch for one transaction.
func (e *Engine) SubmitTx(k int, kind string, payload []byte, isValid bool) (tx.Transaction, error) {
	staged, err := e.SubmitBatch(context.Background(), k, []node.Submission{{Kind: kind, Payload: payload, Valid: isValid}})
	if len(staged) == 0 {
		return tx.Transaction{}, err
	}
	return staged[0], nil
}

// SubmitBatch has provider k stage a batch of transactions in the
// ingress mempool; the next round's collecting phase signs and
// broadcasts them. It admits exactly the prefix the provider's cap has
// room for and returns it, with an ErrBacklog-wrapping error when
// that is not the whole batch. The refused suffix is rejected before
// anything is staged, so a backpressured caller can simply run a round
// and resubmit it — no seq is consumed and nothing is recorded for it.
// ctx is checked once, before staging: a cancelled batch admits
// nothing.
func (e *Engine) SubmitBatch(ctx context.Context, k int, items []node.Submission) ([]tx.Transaction, error) {
	if e.closed {
		return nil, fmt.Errorf("submit: %w", ErrClosed)
	}
	if k < 0 || k >= len(e.providers) {
		return nil, fmt.Errorf("provider %d of %d: %w", k, len(e.providers), ErrUnknownProvider)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var backlog error
	if room := e.ingress.Room(k); room < len(items) {
		items = items[:room]
		backlog = fmt.Errorf("provider %d ingress mempool full (cap %d): %w", k, e.ingress.Cap(), ErrBacklog)
	}
	txs, ids := e.providers[k].Stage(items, int64(e.bus.Now()))
	for i := range txs {
		if _, err := e.ingress.Add(k, ingressTx{provider: k, tx: txs[i], id: ids[i]}); err != nil {
			return nil, err // unreachable within Room; defensive
		}
	}
	e.mpAdmitted.Add(int64(len(txs)))
	return txs, backlog
}

// MempoolDepth reports how many staged submissions await the next
// round's drain.
func (e *Engine) MempoolDepth() int { return e.ingress.Len() }

// drainIngress takes the oldest staged submissions, at most BlockLimit
// of them (all with no limit), groups them by provider in order of
// first appearance, each provider's in its own order, and has every
// provider sign its group as one batch and broadcast it as one frame,
// in that order. Signing runs on the fan-out; the frames reach the bus
// in group order at any worker count. However a client split its
// submissions, a round costs one signature per provider that has any
// drained. The rest stays queued for later rounds.
func (e *Engine) drainIngress() error {
	drained := e.ingress.Drain(e.cfg.BlockLimit)
	e.drained = len(drained)
	if len(drained) == 0 {
		return nil
	}
	rank := make([]int, len(e.providers)) // 1 + group index; 0 unseen
	groups := 0
	for _, d := range drained {
		if rank[d.provider] == 0 {
			groups++
			rank[d.provider] = groups
		}
	}
	slices.SortStableFunc(drained, func(a, b ingressTx) int { return rank[a.provider] - rank[b.provider] })
	txs := make([]tx.Transaction, len(drained))
	ids := make([]crypto.Hash, len(drained))
	starts := make([]int, 0, groups+1)
	for i, d := range drained {
		txs[i], ids[i] = d.tx, d.id
		if i == 0 || d.provider != drained[i-1].provider {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(drained))
	return e.fanOut(groups, func(g int, out node.Sender) error {
		lo, hi := starts[g], starts[g+1]
		p := e.providers[drained[lo].provider]
		return p.Broadcast(p.SignStaged(txs[lo:hi], ids[lo:hi]), out)
	})
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

// at is frac of the way through the current round on governor j's
// clock, which counts rounds from its height at New.
func (e *Engine) at(j int, frac float64) time.Time { return lockstep.At(e.round-e.base[j], frac) }

// stepGovernors steps every live governor at frac of the round with its
// drained endpoint, over fanOut's workers: each touches only its own
// endpoint, state and send buffer. Down governors are skipped (the bus
// drops their traffic). The shared verification cache makes the m-fold
// upload checks hits, but the first governor to reach an upload pays,
// so a busy round's screening outlasts its upload stage. An incomplete
// election aborts the round once every governor consumed its inbox.
func (e *Engine) stepGovernors(frac float64) ([]node.Progress, error) {
	progress := make([]node.Progress, len(e.governors))
	incomplete := make([]error, len(e.governors))
	err := e.fanOut(len(e.governors), func(j int, out node.Sender) error {
		if e.governorDown[j] {
			return nil
		}
		var err error
		progress[j], err = e.governors[j].Step(e.at(j, frac), e.endpoints[j].Receive(), out)
		if errors.Is(err, consensus.ErrIncompleteElection) {
			incomplete[j], err = err, nil
		}
		return err
	})
	if i := slices.IndexFunc(incomplete, func(err error) bool { return err != nil }); err == nil && i >= 0 {
		err = fmt.Errorf("%w: %w", incomplete[i], ErrRoundAborted)
	}
	return progress, err
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
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	// Sign and broadcast staged submissions first (the bus tick only
	// advances inside rounds, so they go out at a submit-time broadcast's
	// tick), then bring every live replica to a common head: a governor
	// that rejoined or missed a block catches up, so this round's
	// election and proposal build on one prev-hash.
	stageStart := time.Now()
	if err := e.drainIngress(); err != nil {
		return RoundResult{}, err
	}
	stageStart = e.observeStage("ingest", stageStart)
	if err := e.resyncGovernors(); err != nil {
		return RoundResult{}, err
	}
	stageStart = e.observeStage("resync", stageStart)
	if err := ctx.Err(); err != nil {
		// Safe abort: resync is idempotent, the round counter has not
		// advanced, and the next round consumes the drained submissions.
		return RoundResult{}, err
	}
	e.round++
	if err := e.open(); err != nil {
		return RoundResult{}, err
	}
	uploads, err := e.upload()
	if err == nil {
		// Last safe abort point: uploads are on the bus but no governor
		// has consumed them, so the next round screens them intact.
		err = ctx.Err()
	}
	if err != nil {
		return RoundResult{}, err
	}
	stageStart = e.observeStage("upload", stageStart)

	// --- Processing phase: each governor sequences its own; the engine
	// steps them at each deadline, after the tick that brings its inputs.
	if _, err := e.stepGovernors(node.DeadlineScreen); err != nil {
		return RoundResult{}, err
	}
	e.bus.AdvancePastDelay()
	stageStart = e.observeStage("screen", stageStart)
	// Elect: the live governors must agree on the leader, which then packs
	// the block and sends it to every governor and provider.
	live := e.liveGovernors()
	progress, err := e.stepGovernors(node.DeadlineElect)
	leader := progress[live[0]].Leader
	for _, j := range live[1:] {
		if err == nil && progress[j].Leader != leader {
			err = fmt.Errorf("governor %d elected %d, governor %d elected %d: %w", j, progress[j].Leader, live[0], leader, ErrDisagreement)
		}
	}
	if err != nil {
		return RoundResult{}, err
	}
	stageStart = e.observeStage("elect", stageStart)
	if _, err := e.governors[leader].Step(e.at(leader, node.DeadlineElect), nil, e.bus); err != nil {
		return RoundResult{}, err
	}
	e.bus.AdvancePastDelay()
	stageStart = e.observeStage("pack", stageStart)
	// The providers observe the block and argue.
	argues, err := e.fanCount(len(e.providers), func(k int, out node.Sender) (int, error) {
		_, argues, err := e.providers[k].Ingest(e.providers[k].Endpoint().Receive(), out)
		return argues, err
	})
	if err != nil {
		return RoundResult{}, err
	}
	stageStart = e.observeStage("argue", stageStart)

	// Every live governor adopts the block and takes a first stake step.
	// A governor whose copy was lost to drops is counted, left one block
	// behind and resynced at the next round start; only a round where no
	// replica holds the block aborts.
	if progress, err = e.stepGovernors(node.DeadlineElect); err != nil {
		return RoundResult{}, err
	}
	holders := slices.DeleteFunc(slices.Clone(live), func(j int) bool { return !progress[j].Committed })
	e.reg.Counter("chaos.governor_missed_block").Add(int64(len(live) - len(holders)))
	if len(holders) == 0 {
		return RoundResult{}, fmt.Errorf("block %d reached no replica: %w", e.governors[leader].Store().Height()+1, ErrRoundAborted)
	}
	block, err := e.agreedHead(holders[0])
	if err != nil {
		return RoundResult{}, err
	}
	stageStart = e.observeStage("commit", stageStart)
	result := RoundResult{Serial: block.Serial, Leader: leader, Block: block, Uploads: uploads, Argues: argues}

	// Stake transform: a tick and a step more until every live governor is
	// done, for at most its four steps (propose, answer, assemble, apply);
	// what is left waits for the next round, a lost block for resync.
	for step := 1; slices.ContainsFunc(live, func(j int) bool { return !progress[j].StakeDone }); step++ {
		if e.bus.AdvancePastDelay(); step == 4 {
			break
		}
		if progress, err = e.stepGovernors(node.DeadlineElect); err != nil {
			return result, err
		}
	}
	for _, g := range e.governors {
		if sb := g.StakeBlock(); sb != nil && sb.Round == e.round {
			result.StakeBlock = sb
		}
	}
	stageStart = e.observeStage("stake", stageStart)
	e.publishRoundMetrics()
	// The round ends: each live governor checkpoints on the SnapshotEvery
	// cadence. A failure is returned: durability was promised and not
	// delivered.
	errs := make([]error, len(live))
	for i, j := range live {
		_, errs[i] = e.governors[j].Step(e.at(j, 1), nil, e.bus)
	}
	e.observeStage("checkpoint", stageStart)
	return result, errors.Join(errs...)
}

// open opens the round on every node: each governor — a down one too,
// so it rejoins in the others' round — at its first instant, handed the
// failure detector's verdict; for collectors and providers the round
// only attributes events.
func (e *Engine) open() error {
	verdict := make([]byte, len(e.governors))
	for j, down := range e.governorDown {
		if down {
			verdict[j] = 1
		}
	}
	for j, g := range e.governors {
		msg := []network.Message{{From: g.ID(), Kind: node.KindDown, Payload: verdict}}
		if _, err := g.Step(e.at(j, 0).Add(time.Nanosecond), msg, e.bus); err != nil {
			return err
		}
	}
	for _, c := range e.collectors {
		c.SetRound(e.round)
	}
	for _, p := range e.providers {
		p.SetRound(e.round + 1)
	}
	return nil
}

// upload lands the providers' broadcasts, has every live collector
// label and upload what arrived, lands that, and counts the labels.
func (e *Engine) upload() (int, error) {
	e.bus.AdvancePastDelay()
	missed := e.reg.Counter("chaos.collector_missed_rounds")
	uploads, err := e.fanCount(len(e.collectors), func(i int, out node.Sender) (int, error) {
		if e.collectorDown[i] {
			missed.Inc()
			return 0, nil
		}
		return e.collectors[i].ProcessBatch(e.collectors[i].Endpoint().Receive(), out)
	})
	if err == nil {
		e.bus.AdvancePastDelay()
	}
	return uploads, err
}

// agreedHead returns governor j's newest block once every replica at
// its serial holds the same (Agreement); one behind is checked by
// AcceptBlock when resynced.
func (e *Engine) agreedHead(j int) (ledger.Block, error) {
	ref := e.governors[j].Store()
	b, err := ref.Get(ref.Height())
	for i := 0; i < len(e.governors) && err == nil; i++ {
		store := e.governors[i].Store()
		if store.Height() < b.Serial {
			continue
		}
		// Right after a commit the serial is the head, whose hash the store keeps.
		h := store.HeadHash()
		if store.Height() > b.Serial {
			var blk ledger.Block
			blk, err = store.Get(b.Serial)
			h = blk.Hash()
		}
		if err == nil && h != ref.HeadHash() {
			err = fmt.Errorf("block %d differs between governors %d and %d: %w", b.Serial, j, i, ErrDisagreement)
		}
	}
	return b, err
}
