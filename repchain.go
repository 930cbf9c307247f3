// Package repchain is the public API of the RepChain library: a
// permissioned blockchain for horizontal strategic alliances with a
// provable reputation mechanism, reproducing Chen et al., "An
// Efficient Permissioned Blockchain with Provable Reputation
// Mechanism" (ICDCS 2021; arXiv:2002.06852).
//
// A chain has three tiers. Providers sign transactions and broadcast
// them to r linked collectors; collectors label each transaction ±1
// and upload it to every governor; governors screen a tunable fraction
// of uploads guided by per-collector reputation vectors, elect a
// round leader through per-stake-unit VRFs, and replicate the block
// chain. Providers that find a valid transaction recorded invalid
// argue, and the transaction enters a later block.
//
// Quick start:
//
//	chain, err := repchain.New(
//		repchain.WithTopology(8, 4, 2), // 8 providers, 4 collectors, 2 collectors/provider
//		repchain.WithGovernors(3),
//		repchain.WithValidator(myValidator),
//		repchain.WithMempool(4, 256), // sharded ingestion with backpressure
//	)
//	...
//	ids, err := chain.SubmitBatch(ctx, 0, txs)
//	if errors.Is(err, repchain.ErrBacklog) {
//		// ids holds the admitted prefix; run a round and resubmit the rest.
//	}
//	summary, err := chain.RunRoundCtx(ctx)
//
// Submit and RunRound remain as single-transaction, context-free
// wrappers.
//
// The reputation mechanism guarantees (paper, Theorem 1) that a
// governor's accumulated expected loss on unchecked transactions
// exceeds the best collector's loss by only O(√T), while checking as
// little as a (1−f) fraction of -1-labeled transactions.
package repchain

import (
	"context"
	"errors"
	"fmt"

	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/trace"
	"repchain/internal/tx"
)

// ErrBadOption reports an invalid configuration option.
var ErrBadOption = errors.New("repchain: invalid option")

// Sentinel errors for the submission and round APIs. Match them with
// errors.Is; the wrapped message carries the specifics.
var (
	// ErrBacklog reports that a provider's mempool shard is full (see
	// WithMempool). Backpressure, not loss: nothing was signed or
	// queued, so run a round to drain the backlog and resubmit.
	ErrBacklog = errors.New("repchain: mempool backlog")
	// ErrClosed reports an operation on a closed chain.
	ErrClosed = errors.New("repchain: chain closed")
	// ErrUnknownProvider reports a provider index outside the topology.
	ErrUnknownProvider = errors.New("repchain: unknown provider")
)

// translateErr maps engine sentinels onto the facade's, so callers
// match repchain.Err* without importing internal packages.
func translateErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrBacklog):
		return fmt.Errorf("%w: %v", ErrBacklog, err)
	case errors.Is(err, core.ErrClosed):
		return fmt.Errorf("%w: %v", ErrClosed, err)
	case errors.Is(err, core.ErrUnknownProvider):
		return fmt.Errorf("%w: %v", ErrUnknownProvider, err)
	default:
		return err
	}
}

// Validator re-exports the validate(tx) contract: applications decide
// what a valid transaction is.
type Validator = tx.Validator

// ValidatorFunc adapts a function to Validator.
type ValidatorFunc = tx.ValidatorFunc

// Transaction re-exports the transaction shape validators see.
type Transaction = tx.Transaction

// CollectorBehavior configures a collector's conduct — honest by
// default; adversarial settings exist for experiments and testing.
type CollectorBehavior struct {
	// Misreport is the probability of flipping the honest label.
	Misreport float64
	// Conceal is the probability of not uploading a transaction.
	Conceal float64
	// Forge is the probability of injecting a forged transaction per
	// round.
	Forge float64
}

// Option configures a chain.
type Option func(*options) error

type options struct {
	cfg       core.Config
	behaviors []CollectorBehavior

	// Cluster-only options (see cluster.go); New rejects them.
	committees int
	partition  identity.PartitionFunc
}

// WithTopology sets l providers, n collectors, and r collectors per
// provider (r·l must be divisible by n).
func WithTopology(providers, collectors, degree int) Option {
	return func(o *options) error {
		o.cfg.Spec = identity.TopologySpec{
			Providers:  providers,
			Collectors: collectors,
			Degree:     degree,
		}
		return nil
	}
}

// WithLinks overrides the regular topology with explicit adjacency
// lists (provider index → collector indices), for irregular networks.
// Combine with WithTopology(providers, collectors, 0) — the degree is
// ignored.
func WithLinks(links [][]int) Option {
	return func(o *options) error {
		o.cfg.Links = make([][]int, len(links))
		for i, l := range links {
			o.cfg.Links[i] = append([]int(nil), l...)
		}
		return nil
	}
}

// WithChainDir backs every governor's ledger replica with append-only
// files in dir, surviving restarts. Call Chain.Close when done.
func WithChainDir(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("empty chain dir: %w", ErrBadOption)
		}
		o.cfg.ChainDir = dir
		return nil
	}
}

// WithSnapshotEvery writes an atomic recovery snapshot (round counter,
// reputation tables, stake vector) into every governor's chain
// directory each n committed rounds and prunes chain segments fully
// behind the snapshot, so restart cost scales with n instead of chain
// height and disk stays bounded. Requires WithChainDir to have any
// effect.
func WithSnapshotEvery(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("snapshot cadence %d: %w", n, ErrBadOption)
		}
		o.cfg.SnapshotEvery = n
		return nil
	}
}

// WithSegmentBytes overrides the chain segment roll threshold for
// file-backed governor stores (default 4 MiB). Smaller segments prune
// at a finer grain; larger ones mean fewer files.
func WithSegmentBytes(n int64) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("segment bytes %d: %w", n, ErrBadOption)
		}
		o.cfg.SegmentBytes = n
		return nil
	}
}

// WithGovernors sets m, the number of governors.
func WithGovernors(m int) Option {
	return func(o *options) error {
		if m <= 0 {
			return fmt.Errorf("governors %d: %w", m, ErrBadOption)
		}
		o.cfg.Governors = m
		return nil
	}
}

// WithStakes sets each governor's initial stake units (defaults to one
// unit each).
func WithStakes(stakes ...uint64) Option {
	return func(o *options) error {
		o.cfg.Stakes = append([]uint64(nil), stakes...)
		return nil
	}
}

// WithReputationParams tunes the mechanism: β ∈ (0,1) weight decay,
// f ∈ (0,1) efficiency, µ,ν > 1 revenue bases.
func WithReputationParams(beta, f, mu, nu float64) Option {
	return func(o *options) error {
		o.cfg.Params = reputation.Params{Beta: beta, F: f, Mu: mu, Nu: nu}
		return nil
	}
}

// WithBlockLimit sets b_limit, the per-block transaction cap (0 =
// unlimited; overflow carries to the next block).
func WithBlockLimit(limit int) Option {
	return func(o *options) error {
		if limit < 0 {
			return fmt.Errorf("block limit %d: %w", limit, ErrBadOption)
		}
		o.cfg.BlockLimit = limit
		return nil
	}
}

// WithMempool shards the ingestion mempool by provider index into
// shardCount bounded queues of shardCap entries each (shardCap 0 =
// unbounded). A full shard rejects Submit with ErrBacklog before
// anything is signed — backpressure, never silent loss — and each
// round broadcasts at most one WithBlockLimit-sized batch, drained in
// deterministic (shard, submission) order, carrying the backlog over.
// Without this option the chain keeps the legacy single unbounded
// queue that drains fully every round.
func WithMempool(shardCount, shardCap int) Option {
	return func(o *options) error {
		if shardCount <= 0 {
			return fmt.Errorf("mempool shard count %d must be positive: %w", shardCount, ErrBadOption)
		}
		if shardCap < 0 {
			return fmt.Errorf("mempool shard cap %d must be non-negative: %w", shardCap, ErrBadOption)
		}
		o.cfg.MempoolShards = shardCount
		o.cfg.MempoolShardCap = shardCap
		return nil
	}
}

// WithAdmissionFloor makes governors shed verified uploads from
// collectors whose reputation weight for the submitting provider has
// decayed below w ∈ [0, 1] — the same draw-time signal screening uses.
// Weights start at 1 and only decay, so a fresh chain sheds nothing;
// the floor bites only after the mechanism learns to distrust a
// collector. Shed uploads are counted in mempool.shed_total and the
// governor's ShedReports stat. Zero (the default) admits everything.
func WithAdmissionFloor(w float64) Option {
	return func(o *options) error {
		if w < 0 || w > 1 {
			return fmt.Errorf("admission floor %v outside [0, 1]: %w", w, ErrBadOption)
		}
		o.cfg.AdmissionFloor = w
		return nil
	}
}

// WithArgueWindow sets U: an unchecked transaction may be argued until
// U newer unchecked transactions from the same provider exist.
func WithArgueWindow(u int) Option {
	return func(o *options) error {
		if u <= 0 {
			return fmt.Errorf("argue window %d: %w", u, ErrBadOption)
		}
		o.cfg.ArgueWindow = u
		return nil
	}
}

// WithSeed fixes all randomness for reproducible runs.
func WithSeed(seed int64) Option {
	return func(o *options) error {
		o.cfg.Seed = seed
		return nil
	}
}

// WithWorkers bounds the goroutines used to fan out per-collector and
// per-governor round work. Zero means one worker per logical CPU (the
// default); 1 steps the nodes one after another (a batch's signatures
// still spread over GOMAXPROCS within a node). Every setting produces
// byte-identical rounds — parallelism trades only wall time.
// With workers != 1 the Validator must be safe for concurrent use
// (pure functions are).
func WithWorkers(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("workers %d: %w", n, ErrBadOption)
		}
		o.cfg.Workers = n
		return nil
	}
}

// WithSilenceDecay makes governors β-decay linked collectors that
// stayed silent on a checked transaction, so withholding a report
// costs reputation on both disclosure paths (checked and unchecked)
// instead of only at unchecked reveals. Silence never moves the
// misreport score — only an actively wrong label does.
func WithSilenceDecay() Option {
	return func(o *options) error {
		o.cfg.SilenceDecay = true
		return nil
	}
}

// WithTracing records every transaction's lifecycle — sign, label,
// upload, screen, elect, pack, commit, argue, reputation update — into
// an in-memory ring buffer of the given span capacity. Tracing is
// purely observational: it consumes no protocol randomness and rounds
// stay byte-identical with it on or off. Zero capacity disables it.
func WithTracing(capacity int) Option {
	return func(o *options) error {
		if capacity < 0 {
			return fmt.Errorf("trace capacity %d: %w", capacity, ErrBadOption)
		}
		o.cfg.TraceCapacity = capacity
		return nil
	}
}

// WithEventLog records consensus-significant events — uploads
// screened, leaders elected, blocks packed and committed, reputation
// deltas with the arguments needed to re-apply them offline, quorum
// changes — into an in-memory ring of the given capacity. Like
// tracing, the log is purely observational: rounds stay byte-identical
// with it on or off. Zero capacity disables it.
func WithEventLog(capacity int) Option {
	return func(o *options) error {
		if capacity < 0 {
			return fmt.Errorf("event capacity %d: %w", capacity, ErrBadOption)
		}
		o.cfg.EventCapacity = capacity
		return nil
	}
}

// WithValidator installs the application's validate(tx).
func WithValidator(v Validator) Option {
	return func(o *options) error {
		if v == nil {
			return fmt.Errorf("nil validator: %w", ErrBadOption)
		}
		o.cfg.Validator = v
		return nil
	}
}

// WithNetworkDelay sets the synchronous bound Δ in logical ticks.
func WithNetworkDelay(maxDelay int) Option {
	return func(o *options) error {
		if maxDelay < 0 {
			return fmt.Errorf("delay %d: %w", maxDelay, ErrBadOption)
		}
		o.cfg.MaxDelay = maxDelay
		return nil
	}
}

// WithCollectorBehaviors assigns per-collector conduct, index-aligned
// with the topology's collectors.
func WithCollectorBehaviors(behaviors ...CollectorBehavior) Option {
	return func(o *options) error {
		o.behaviors = append([]CollectorBehavior(nil), behaviors...)
		return nil
	}
}

// Chain is a running alliance chain: the single-committee facade.
//
// Chain remains fully supported and is exactly a one-committee Cluster:
// NewCluster with the same options (and WithCommittees(1) or no
// committee option at all) produces a byte-identical chain, reachable
// through Cluster.Committee(0). New applications that may ever need
// more than one committee should start from NewCluster; existing Chain
// code keeps working unchanged and can migrate mechanically (see the
// README's migration notes).
type Chain struct {
	engine *core.Engine
}

// New assembles a chain. Required options: WithTopology,
// WithGovernors, WithValidator. The cluster-only options
// WithCommittees and WithPartition are rejected here — use NewCluster.
func New(opts ...Option) (*Chain, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.committees != 0 || o.partition != nil {
		return nil, fmt.Errorf("WithCommittees/WithPartition require NewCluster: %w", ErrBadOption)
	}
	engine, err := core.New(o.cfg)
	if err != nil {
		return nil, err
	}
	return &Chain{engine: engine}, nil
}

// TxID identifies a submitted transaction.
type TxID = crypto.Hash

// Tx is one transaction to submit: the application kind and payload,
// plus the provider's own ground truth about validity (used later to
// decide whether to argue a mislabeled transaction).
type Tx struct {
	Kind    string
	Payload []byte
	Valid   bool
}

// Submit stages one transaction from provider k for the next round's
// collecting phase. isValid is the provider's own ground truth.
// Fails with ErrBacklog when the provider's mempool shard is full
// (WithMempool), ErrUnknownProvider for an out-of-range index, or
// ErrClosed after Close. Submit is SubmitBatch for a single
// transaction without a context.
func (c *Chain) Submit(provider int, kind string, payload []byte, isValid bool) (TxID, error) {
	signed, err := c.engine.SubmitTx(provider, kind, payload, isValid)
	if err != nil {
		return TxID{}, translateErr(err)
	}
	return signed.ID(), nil
}

// SubmitBatch stages a batch of transactions from one provider,
// returning the IDs of the admitted prefix. On backpressure it admits
// as many leading transactions as the provider's shard holds, then
// returns the admitted IDs together with an ErrBacklog-wrapping error;
// callers resume from txs[len(ids)] after running a round. The context
// is checked once, before anything is signed: a cancelled batch admits
// nothing and returns the context's error. Admission is all-or-nothing
// per transaction, never partial within one. The batch's signatures
// are computed on every available core; the result is exactly that of
// submitting the transactions one by one.
func (c *Chain) SubmitBatch(ctx context.Context, provider int, txs []Tx) ([]TxID, error) {
	signed, err := c.engine.SubmitBatch(ctx, provider, submissions(txs))
	return txIDs(signed), translateErr(err)
}

// submissions converts a facade batch to the provider's input type.
func submissions(txs []Tx) []node.Submission {
	items := make([]node.Submission, len(txs))
	for i, t := range txs {
		items[i] = node.Submission(t)
	}
	return items
}

// txIDs returns the IDs of an admitted batch.
func txIDs(signed []tx.SignedTx) []TxID {
	ids := make([]TxID, len(signed))
	for i, s := range signed {
		ids[i] = s.ID()
	}
	return ids
}

// TransferStake queues a stake transfer between governors for the next
// round's stake-transform block.
func (c *Chain) TransferStake(from, to int, amount uint64) error {
	return c.engine.SubmitStakeTransfer(from, to, amount)
}

// RoundSummary reports one committed round.
type RoundSummary struct {
	// Serial is the committed block's number.
	Serial uint64
	// Leader is the elected governor's index.
	Leader int
	// Records is the number of transactions in the block.
	Records int
	// Uploads counts collector uploads this round.
	Uploads int
	// Argues counts provider disputes raised by this block.
	Argues int
	// StakeCommitted reports whether a stake-transform block also
	// committed.
	StakeCommitted bool
}

// RunRound executes one full protocol round (uploading + processing
// phases) over everything submitted since the previous round. It is
// RunRoundCtx without cancellation.
func (c *Chain) RunRound() (RoundSummary, error) {
	return c.RunRoundCtx(context.Background())
}

// RunRoundCtx is RunRound with cancellation. The context is honored
// only at stage boundaries where abandoning the round leaves every
// replica consistent; once screening begins the round runs to
// completion. A cancelled round returns the context's error, commits
// nothing, and leaves staged traffic intact for the next round.
func (c *Chain) RunRoundCtx(ctx context.Context) (RoundSummary, error) {
	res, err := c.engine.RunRoundCtx(ctx)
	if err != nil {
		return RoundSummary{}, translateErr(err)
	}
	return RoundSummary{
		Serial:         res.Serial,
		Leader:         res.Leader,
		Records:        len(res.Block.Records),
		Uploads:        res.Uploads,
		Argues:         res.Argues,
		StakeCommitted: res.StakeBlock != nil,
	}, nil
}

// Height returns the chain height.
func (c *Chain) Height() uint64 {
	return c.engine.Governor(0).Store().Height()
}

// RecordStatus is one committed transaction's judgment.
type RecordStatus struct {
	// ID is the transaction identifier.
	ID TxID
	// Provider is the authoring provider's node ID.
	Provider string
	// Kind is the application payload type.
	Kind string
	// Payload is the application data.
	Payload []byte
	// Valid reports the recorded status.
	Valid bool
	// Unchecked reports that the governor skipped verification.
	Unchecked bool
}

// Block retrieves the records of block s (the paper's retrieve(s)).
func (c *Chain) Block(s uint64) ([]RecordStatus, error) {
	b, err := c.engine.Governor(0).Store().Get(s)
	if err != nil {
		return nil, err
	}
	out := make([]RecordStatus, 0, len(b.Records))
	for _, r := range b.Records {
		out = append(out, RecordStatus{
			ID:        r.Signed.ID(),
			Provider:  string(r.Signed.Tx.Provider),
			Kind:      r.Signed.Tx.Kind,
			Payload:   append([]byte(nil), r.Signed.Tx.Payload...),
			Valid:     r.Status == tx.StatusValid,
			Unchecked: r.Unchecked,
		})
	}
	return out, nil
}

// VerifyChain audits the full replicated chain: serial ordering, hash
// links, and transaction-root commitments.
func (c *Chain) VerifyChain() error {
	for j := 0; j < c.engine.Governors(); j++ {
		if err := ledger.VerifyChain(c.engine.Governor(j).Store()); err != nil {
			return fmt.Errorf("governor %d: %w", j, err)
		}
	}
	return nil
}

// RevenueShares returns the current revenue split across collectors
// (governor 0's view), the incentive signal of §3.4.3.
func (c *Chain) RevenueShares() ([]float64, error) {
	return c.engine.Governor(0).Table().RevenueShares()
}

// CollectorReputation returns collector c's full reputation vector in
// the paper's layout — s per-provider weights, then w_misreport and
// w_forge — from governor 0's view.
func (c *Chain) CollectorReputation(collector int) ([]float64, error) {
	return c.engine.Governor(0).Table().Vector(collector)
}

// Stakes returns the governors' current stake vector.
func (c *Chain) Stakes() []uint64 {
	return c.engine.StakeLedger().Snapshot()
}

// PendingValid returns how many of provider k's valid transactions
// have not yet been recorded valid — zero once the Validity property
// has caught up.
func (c *Chain) PendingValid(provider int) int {
	return c.engine.Provider(provider).PendingValid()
}

// GovernorStats reports a governor's screening counters.
type GovernorStats = node.GovernorStats

// Stats returns governor j's screening counters.
func (c *Chain) Stats(governor int) GovernorStats {
	return c.engine.Governor(governor).Stats()
}

// Close releases any file-backed governor stores (WithChainDir).
// Chains with in-memory replicas need no Close.
func (c *Chain) Close() error { return c.engine.Close() }

// Metrics renders the chain's operational metrics — protocol anomaly
// counters and signature-cache statistics — one per line, sorted by
// name.
func (c *Chain) Metrics() string { return c.engine.Metrics().Dump() }

// MetricsSnapshot returns the chain's metrics as a structured,
// JSON-serialisable snapshot (counters, gauges, histograms, series).
func (c *Chain) MetricsSnapshot() metrics.Snapshot { return c.engine.Metrics().Snapshot() }

// Span re-exports one recorded lifecycle event (see WithTracing).
type Span = trace.Span

// Trace returns the recorded lifecycle spans of one transaction,
// oldest first. Empty without WithTracing, or if the spans have been
// evicted from the ring buffer.
func (c *Chain) Trace(id TxID) []Span {
	return c.engine.Tracer().ByTrace(id.String())
}

// Spans returns every span currently in the trace ring buffer, oldest
// first. Empty without WithTracing.
func (c *Chain) Spans() []Span { return c.engine.Tracer().Spans() }

// Event re-exports one recorded consensus event (see WithEventLog).
type Event = events.Event

// Events returns every event currently in the consensus event ring,
// oldest first. Empty without WithEventLog.
func (c *Chain) Events() []Event { return c.engine.Events().Events() }

// EventLog exposes the chain's structured event log for replay and
// filtered export (see the events package). Nil without WithEventLog.
func (c *Chain) EventLog() *events.Log { return c.engine.Events() }

// MempoolDepth reports how many staged submissions await the next
// round's drain (always zero right after a round without backpressure).
func (c *Chain) MempoolDepth() int { return c.engine.MempoolDepth() }

// Engine exposes the underlying engine for advanced use (experiments,
// fault injection).
//
// Deprecated: the facade now covers batching (SubmitBatch),
// cancellation (RunRoundCtx), backpressure (WithMempool, ErrBacklog),
// and observability (Metrics, Trace) directly; internal/core's API has
// no compatibility promise. Reach for Engine only in experiments that
// inject faults, and expect it to change underneath you.
func (c *Chain) Engine() *core.Engine { return c.engine }
