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
//		repchain.WithMempool(256), // bounded ingestion with backpressure
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
	"fmt"

	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/shard"
	"repchain/internal/tx"
)

// Sentinel errors, matched with errors.Is; the wrapped message carries
// the specifics. They are the internal layers' own values — one
// vocabulary from facade to engine, nothing translated on the way up.
var (
	// ErrBadOption reports an invalid configuration: a bad option value,
	// a missing required option, or options that do not fit together.
	ErrBadOption = core.ErrBadConfig
	// ErrBacklog reports that a provider is at its mempool cap (see
	// WithMempool). Backpressure, not loss: nothing was signed or
	// queued, so run a round to drain the backlog and resubmit.
	ErrBacklog = core.ErrBacklog
	// ErrClosed reports a submission or round on a closed chain.
	ErrClosed = core.ErrClosed
	// ErrUnknownProvider reports a provider index outside the topology.
	ErrUnknownProvider = core.ErrUnknownProvider
	// ErrUnknownCommittee reports a committee index outside [0, K).
	ErrUnknownCommittee = shard.ErrUnknownCommittee
	// ErrRehome reports an unsupported provider re-home (shared
	// collectors, emptied source committee, single-committee cluster).
	ErrRehome = shard.ErrRehome
)

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

// options is the cluster configuration the option list folds into;
// New rejects the cluster-only Committees.
type options struct{ shard.Config }

// WithTopology sets l providers, n collectors, and r collectors per
// provider (r·l must be divisible by n).
func WithTopology(providers, collectors, degree int) Option {
	return func(o *options) error {
		o.Base.Spec = identity.TopologySpec{
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
		o.Base.Links = make([][]int, len(links))
		for i, l := range links {
			o.Base.Links[i] = append([]int(nil), l...)
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
		o.Base.ChainDir = dir
		return nil
	}
}

// WithSnapshotEvery writes an atomic recovery snapshot (round counter,
// reputation tables, stake vector) into every governor's chain
// directory each time its chain grows n blocks past the last one and
// prunes chain segments fully behind the snapshot, so restart cost scales with n instead of chain
// height and disk stays bounded. Without WithChainDir, New and
// NewCluster reject it.
func WithSnapshotEvery(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("snapshot cadence %d: %w", n, ErrBadOption)
		}
		o.Base.SnapshotEvery = n
		return nil
	}
}

// WithSegmentBytes overrides the chain segment roll threshold for
// file-backed governor stores (default 4 MiB). Smaller segments prune
// at a finer grain; larger ones mean fewer files. Without
// WithChainDir, New and NewCluster reject it.
func WithSegmentBytes(n int64) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("segment bytes %d: %w", n, ErrBadOption)
		}
		o.Base.SegmentBytes = n
		return nil
	}
}

// WithGovernors sets m, the number of governors.
func WithGovernors(m int) Option {
	return func(o *options) error {
		if m <= 0 {
			return fmt.Errorf("governors %d: %w", m, ErrBadOption)
		}
		o.Base.Governors = m
		return nil
	}
}

// WithStakes sets each governor's initial stake units (defaults to one
// unit each).
func WithStakes(stakes ...uint64) Option {
	return func(o *options) error {
		o.Base.Stakes = append([]uint64(nil), stakes...)
		return nil
	}
}

// WithReputationParams tunes the mechanism: β ∈ (0,1) weight decay,
// f ∈ (0,1) efficiency, µ,ν > 1 revenue bases.
func WithReputationParams(beta, f, mu, nu float64) Option {
	return func(o *options) error {
		o.Base.Params = reputation.Params{Beta: beta, F: f, Mu: mu, Nu: nu}
		return nil
	}
}

// WithBlockLimit sets b_limit, the per-block transaction cap (0 =
// unlimited). Every mempool drains at most b_limit transactions per
// round, oldest first, so overflow carries to the next block.
func WithBlockLimit(limit int) Option {
	return func(o *options) error {
		if limit < 0 {
			return fmt.Errorf("block limit %d: %w", limit, ErrBadOption)
		}
		o.Base.BlockLimit = limit
		return nil
	}
}

// WithMempool bounds every mempool at capPerProvider pending
// transactions per provider. A provider at its cap gets ErrBacklog from
// Submit before anything is staged — backpressure, never silent loss —
// while a governor evicts that provider's oldest pending upload
// (counted in mempool.evicted_total). Bounded or not (the default),
// every mempool is one queue in arrival order, drained at most
// WithBlockLimit transactions per round.
func WithMempool(capPerProvider int) Option {
	return func(o *options) error {
		if capPerProvider <= 0 {
			return fmt.Errorf("mempool cap %d must be positive: %w", capPerProvider, ErrBadOption)
		}
		o.Base.MempoolCap = capPerProvider
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
		o.Base.ArgueWindow = u
		return nil
	}
}

// WithSeed fixes all randomness for reproducible runs.
func WithSeed(seed int64) Option {
	return func(o *options) error {
		o.Base.Seed = seed
		return nil
	}
}

// WithEventLog records every protocol fact into an in-memory ring of
// the given capacity: each transaction's lifecycle — sign, label,
// upload, screen, argue, pack, commit, reputation update — under its
// trace ID (see Committee.Trace), leader elections, blocks packed and
// committed, reputation deltas with the arguments needed to re-apply
// them offline, quorum changes. The log is purely observational: it
// consumes no protocol randomness and rounds stay byte-identical with
// it on or off. Zero capacity disables it.
func WithEventLog(capacity int) Option {
	return func(o *options) error {
		if capacity < 0 {
			return fmt.Errorf("event capacity %d: %w", capacity, ErrBadOption)
		}
		o.Base.EventCapacity = capacity
		return nil
	}
}

// WithValidator installs the application's validate(tx).
func WithValidator(v Validator) Option {
	return func(o *options) error {
		if v == nil {
			return fmt.Errorf("nil validator: %w", ErrBadOption)
		}
		o.Base.Validator = v
		return nil
	}
}

// WithNetworkDelay sets the synchronous bound Δ in logical ticks.
func WithNetworkDelay(maxDelay int) Option {
	return func(o *options) error {
		if maxDelay < 0 {
			return fmt.Errorf("delay %d: %w", maxDelay, ErrBadOption)
		}
		o.Base.MaxDelay = maxDelay
		return nil
	}
}

// WithCollectorBehaviors assigns per-collector conduct, index-aligned
// with the topology's collectors.
func WithCollectorBehaviors(behaviors ...CollectorBehavior) Option {
	return func(o *options) error {
		o.Base.Behaviors = nil
		for _, b := range behaviors {
			if b == (CollectorBehavior{}) {
				o.Base.Behaviors = append(o.Base.Behaviors, node.HonestBehavior{})
			} else {
				o.Base.Behaviors = append(o.Base.Behaviors, node.ProbBehavior(b))
			}
		}
		return nil
	}
}

// Chain is a running alliance chain: the single-committee facade. It is
// the K=1 Cluster by construction — New builds what NewCluster builds
// without WithCommittees, Chain's own methods forward to that cluster,
// and every read is the embedded Committee's — so there is one stack,
// facade → shard.Cluster → core.Engine. Code that may ever need more
// than one committee starts from NewCluster.
type Chain struct {
	// Committee is the chain's only committee, Cluster.Committee(0).
	*Committee
	cluster *Cluster
}

// New assembles a chain. Required options: WithTopology,
// WithGovernors, WithValidator. The cluster-only option
// WithCommittees is rejected here — use NewCluster.
func New(opts ...Option) (*Chain, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.Committees != 0 {
		return nil, fmt.Errorf("WithCommittees requires NewCluster: %w", ErrBadOption)
	}
	cl, err := newCluster(o)
	if err != nil {
		return nil, err
	}
	return &Chain{Committee: &Committee{cl: cl.cl}, cluster: cl}, nil
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
// Fails with ErrBacklog when the provider is at its mempool cap
// (WithMempool), ErrUnknownProvider for an out-of-range index, or
// ErrClosed after Close. Submit is SubmitBatch for a single
// transaction without a context.
func (c *Chain) Submit(provider int, kind string, payload []byte, isValid bool) (TxID, error) {
	return c.cluster.Submit(provider, kind, payload, isValid)
}

// SubmitBatch stages a batch of transactions from one provider,
// returning the IDs of the admitted prefix. On backpressure it admits
// as many leading transactions as the provider's cap has room for,
// then returns the admitted IDs together with an ErrBacklog-wrapping error;
// callers resume from txs[len(ids)] after running a round. The context
// is checked once, before anything is staged: a cancelled batch admits
// nothing and returns the context's error. Admission is all-or-nothing
// per transaction, never partial within one. Nothing is signed here:
// the round that drains the batch signs each provider's share once, so
// the result is exactly, byte for byte, that of submitting the
// transactions one by one.
func (c *Chain) SubmitBatch(ctx context.Context, provider int, txs []Tx) ([]TxID, error) {
	return c.cluster.SubmitBatch(ctx, provider, txs)
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
	summaries, err := c.cluster.RunRoundCtx(ctx)
	if err != nil {
		return RoundSummary{}, err
	}
	return summaries[0], nil
}

// Close checkpoints and releases any file-backed governor stores
// (WithChainDir); chains with in-memory replicas need no Close. It is
// idempotent. After Close, submissions and rounds fail with ErrClosed.
func (c *Chain) Close() error { return c.cluster.Close() }

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

// GovernorStats reports a governor's screening counters.
type GovernorStats = node.GovernorStats

// Event re-exports one recorded protocol fact (see WithEventLog).
type Event = events.Event
