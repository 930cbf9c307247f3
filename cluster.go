package repchain

import (
	"context"
	"errors"
	"fmt"

	"repchain/internal/core"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/shard"
	"repchain/internal/tx"
)

// Sentinel errors of the cluster API, matched with errors.Is.
var (
	// ErrUnknownCommittee reports a committee index outside [0, K).
	ErrUnknownCommittee = errors.New("repchain: unknown committee")
	// ErrRehome reports an unsupported provider re-home (shared
	// collectors, emptied source committee, single-committee cluster).
	ErrRehome = errors.New("repchain: cannot re-home provider")
)

// PartitionFunc assigns global provider indices to committees; it must
// be a pure function of its arguments. See identity.ModuloPartition for
// the default.
type PartitionFunc = identity.PartitionFunc

// WithCommittees sets K, the number of sharded committees a cluster
// runs (NewCluster only; New rejects it). Each committee runs the full
// protocol — its own collectors, governors, VRF leader election, and
// chain — over its slice of the provider set. K = 1 is byte-identical
// to an unsharded Chain with the same options.
func WithCommittees(k int) Option {
	return func(o *options) error {
		if k <= 0 {
			return fmt.Errorf("committees %d: %w", k, ErrBadOption)
		}
		o.committees = k
		return nil
	}
}

// WithPartition overrides how providers map onto committees
// (NewCluster only; default identity.ModuloPartition). The function
// must be deterministic: the mapping is part of the replicated state.
func WithPartition(fn PartitionFunc) Option {
	return func(o *options) error {
		if fn == nil {
			return fmt.Errorf("nil partition: %w", ErrBadOption)
		}
		o.partition = fn
		return nil
	}
}

// Cluster is a committee-sharded alliance chain: K committees, each a
// complete protocol instance over its slice of the provider set, plus
// the two-phase cross-shard receipt relay between them. Committee 0 of
// a K=1 cluster is byte-identical to a Chain built from the same
// options — Chain remains the supported single-committee facade, and
// Cluster is its multi-committee superset.
type Cluster struct {
	cl         *shard.Cluster
	committees []Committee
}

// NewCluster assembles a sharded cluster from the same options as New
// plus WithCommittees and WithPartition. WithTopology describes the
// GLOBAL provider/collector population; per-committee topologies are
// carved from it along the partition. WithLinks and explicit
// per-collector behaviours are incompatible with K > 1.
func NewCluster(opts ...Option) (*Cluster, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	k := o.committees
	if k == 0 {
		k = 1
	}
	cl, err := shard.New(shard.Config{
		Base:       o.cfg,
		Committees: k,
		Partition:  o.partition,
	})
	if err != nil {
		return nil, translateShardErr(err)
	}
	c := &Cluster{cl: cl}
	c.committees = make([]Committee, k)
	for i := range c.committees {
		c.committees[i] = Committee{cl: cl, index: i}
	}
	return c, nil
}

// translateShardErr maps shard sentinels onto the facade's.
func translateShardErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, shard.ErrConfig):
		return fmt.Errorf("%w: %v", ErrBadOption, err)
	case errors.Is(err, shard.ErrClosed):
		return fmt.Errorf("%w: %v", ErrClosed, err)
	case errors.Is(err, shard.ErrUnknownProvider):
		return fmt.Errorf("%w: %v", ErrUnknownProvider, err)
	case errors.Is(err, shard.ErrUnknownCommittee):
		return fmt.Errorf("%w: %v", ErrUnknownCommittee, err)
	case errors.Is(err, shard.ErrRehome):
		return fmt.Errorf("%w: %v", ErrRehome, err)
	default:
		return translateErr(err)
	}
}

// Committees returns K.
func (c *Cluster) Committees() int { return len(c.committees) }

// Committee returns the view onto committee i.
func (c *Cluster) Committee(i int) (*Committee, error) {
	if i < 0 || i >= len(c.committees) {
		return nil, fmt.Errorf("committee %d of %d: %w", i, len(c.committees), ErrUnknownCommittee)
	}
	return &c.committees[i], nil
}

// Home returns the committee global provider k currently lives on.
func (c *Cluster) Home(provider int) (int, error) {
	slot, err := c.cl.Home(provider)
	if err != nil {
		return 0, translateShardErr(err)
	}
	return slot.Committee, nil
}

// Submit stages one transaction from global provider k, routed to its
// home committee by the partition.
func (c *Cluster) Submit(provider int, kind string, payload []byte, isValid bool) (TxID, error) {
	_, signed, err := c.cl.SubmitTx(provider, kind, payload, isValid)
	if err != nil {
		return TxID{}, translateShardErr(err)
	}
	return signed.ID(), nil
}

// SubmitBatch stages a batch from one global provider, routed to its
// home committee. Semantics match Chain.SubmitBatch: the admitted
// prefix's IDs are always returned, with ErrBacklog alongside (resume
// from txs[len(ids)] after a round) when admission stopped early; a
// cancelled context admits nothing.
func (c *Cluster) SubmitBatch(ctx context.Context, provider int, txs []Tx) ([]TxID, error) {
	_, signed, err := c.cl.SubmitBatch(ctx, provider, submissions(txs))
	return txIDs(signed), translateShardErr(err)
}

// SubmitCross stages a cross-shard transaction from provider `from` to
// provider `to`'s committee via the two-phase receipt protocol: a lock
// commits on the source committee, then the cluster relays an
// idempotent receipt carrying the inner transaction onto the
// destination, retrying until it commits. Same-committee pairs degrade
// to a plain submission. The returned ID is the lock's (or the direct
// transaction's); receipts reference it.
func (c *Cluster) SubmitCross(from, to int, kind string, payload []byte, isValid bool) (TxID, error) {
	signed, err := c.cl.SubmitCross(from, to, kind, payload, isValid)
	if err != nil {
		return TxID{}, translateShardErr(err)
	}
	return signed.ID(), nil
}

// Rehome moves global provider k — with its linked collectors and
// their learned reputation state — onto committee dst. The carried RWM
// weight columns and misreport/forge scores are re-applied bitwise, so
// destination governors screen the mover exactly as the source
// governors would have. Requires the global topology to give each
// provider exclusive collectors (collector degree 1). Re-home at a
// round boundary; staged submissions on the two affected committees
// are dropped as by a crash.
func (c *Cluster) Rehome(provider, dst int) error {
	return translateShardErr(c.cl.Rehome(provider, dst))
}

// RunRound executes one protocol round on every committee concurrently
// and relays cross-shard receipts, returning per-committee summaries in
// committee order. A committee's failure leaves its summary zero and
// joins the error without stopping the others.
func (c *Cluster) RunRound() ([]RoundSummary, error) {
	return c.RunRoundCtx(context.Background())
}

// RunRoundCtx is RunRound with cancellation, honored at the same
// replica-consistent stage boundaries as Chain.RunRoundCtx.
func (c *Cluster) RunRoundCtx(ctx context.Context) ([]RoundSummary, error) {
	results, err := c.cl.RunRoundCtx(ctx)
	summaries := make([]RoundSummary, len(results))
	for i, res := range results {
		if res.Block.Serial == 0 && res.Serial == 0 {
			continue
		}
		summaries[i] = RoundSummary{
			Serial:         res.Serial,
			Leader:         res.Leader,
			Records:        len(res.Block.Records),
			Uploads:        res.Uploads,
			Argues:         res.Argues,
			StakeCommitted: res.StakeBlock != nil,
		}
	}
	return summaries, translateShardErr(err)
}

// PendingReceipts reports how many cross-shard receipts await
// commitment on their destination committees.
func (c *Cluster) PendingReceipts() int { return c.cl.PendingReceipts() }

// VerifyChain audits every committee's replicated chain.
func (c *Cluster) VerifyChain() error {
	for i := range c.committees {
		if err := c.committees[i].VerifyChain(); err != nil {
			return fmt.Errorf("committee %d: %w", i, err)
		}
	}
	return nil
}

// Metrics renders the cluster-level metrics — per-committee chain
// heads (chain.height{committee="i"}) and the cross-shard relay
// counters — one per line, sorted by name. Per-committee protocol
// metrics live on each Committee's MetricsSnapshot.
func (c *Cluster) Metrics() string { return c.cl.Metrics().Dump() }

// MetricsSnapshot returns the cluster-level metrics as a structured
// snapshot.
func (c *Cluster) MetricsSnapshot() metrics.Snapshot { return c.cl.Metrics().Snapshot() }

// Close shuts every committee down, releasing any file-backed stores.
func (c *Cluster) Close() error { return translateShardErr(c.cl.Close()) }

// Committee is a read view onto one committee of a Cluster: its chain,
// its traces, and its protocol metrics. Submissions go through the
// Cluster, which owns the routing.
type Committee struct {
	cl    *shard.Cluster
	index int
}

// Index returns the committee's index within the cluster.
func (cm *Committee) Index() int { return cm.index }

// Providers returns the global provider indices homed on this
// committee, in local order.
func (cm *Committee) Providers() []int { return cm.cl.Members(cm.index) }

// Height returns the committee's chain height.
func (cm *Committee) Height() uint64 {
	return cm.engine().Governor(0).Store().Height()
}

// Block retrieves the records of the committee's block s.
func (cm *Committee) Block(s uint64) ([]RecordStatus, error) {
	b, err := cm.engine().Governor(0).Store().Get(s)
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

// VerifyChain audits the committee's replicated chain across all its
// governors.
func (cm *Committee) VerifyChain() error {
	eng := cm.engine()
	for j := 0; j < eng.Governors(); j++ {
		if err := ledger.VerifyChain(eng.Governor(j).Store()); err != nil {
			return fmt.Errorf("governor %d: %w", j, err)
		}
	}
	return nil
}

// Trace returns the committee-local lifecycle spans of one transaction
// (WithTracing), oldest first.
func (cm *Committee) Trace(id TxID) []Span {
	return cm.engine().Tracer().ByTrace(id.String())
}

// Events returns the committee's consensus events (WithEventLog),
// oldest first.
func (cm *Committee) Events() []Event {
	return cm.engine().Events().Events()
}

// Stats returns governor j's screening counters on this committee.
func (cm *Committee) Stats(governor int) GovernorStats {
	return cm.engine().Governor(governor).Stats()
}

// MetricsSnapshot returns the committee engine's protocol metrics.
func (cm *Committee) MetricsSnapshot() metrics.Snapshot {
	return cm.engine().Metrics().Snapshot()
}

// RevenueShares returns the committee's current revenue split across
// its local collectors (governor 0's view), the incentive signal of
// §3.4.3.
func (cm *Committee) RevenueShares() ([]float64, error) {
	return cm.engine().Governor(0).Table().RevenueShares()
}

// CollectorReputation returns committee-local collector c's reputation
// vector from governor 0's view.
func (cm *Committee) CollectorReputation(collector int) ([]float64, error) {
	return cm.engine().Governor(0).Table().Vector(collector)
}

func (cm *Committee) engine() *core.Engine { return cm.cl.Engine(cm.index) }

// buildOptions folds the option list over the shared defaults; New and
// NewCluster assemble configurations identically so a K=1 cluster and a
// Chain built from the same options run the same engine byte for byte.
func buildOptions(opts []Option) (options, error) {
	o := options{
		cfg: core.Config{
			Params:      reputation.DefaultParams(),
			ArgueWindow: node.DefaultArgueWindow,
			MaxDelay:    1,
		},
	}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return options{}, err
		}
	}
	if o.behaviors != nil {
		o.cfg.Behaviors = make([]node.Behavior, len(o.behaviors))
		for i, b := range o.behaviors {
			if b == (CollectorBehavior{}) {
				o.cfg.Behaviors[i] = node.HonestBehavior{}
				continue
			}
			o.cfg.Behaviors[i] = node.ProbBehavior{
				Misreport: b.Misreport,
				Conceal:   b.Conceal,
				Forge:     b.Forge,
			}
		}
	}
	return o, nil
}
