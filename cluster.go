package repchain

import (
	"context"
	"fmt"

	"repchain/internal/core"
	"repchain/internal/events"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/shard"
	"repchain/internal/tx"
)

// WithCommittees sets K, the number of sharded committees a cluster
// runs (NewCluster only; New rejects it). Each committee runs the full
// protocol — its own collectors, governors, VRF leader election, and
// chain — over its slice of the provider set. K = 1, the default, is
// what New builds.
func WithCommittees(k int) Option {
	return func(o *options) error {
		if k <= 0 {
			return fmt.Errorf("committees %d: %w", k, ErrBadOption)
		}
		o.Committees = k
		return nil
	}
}

// Cluster is a committee-sharded alliance chain: K committees, each a
// complete protocol instance over its slice of the provider set, plus
// the two-phase cross-shard receipt relay between them. A Chain is the
// K=1 Cluster: New and NewCluster share one constructor and one round.
// Only K>1 derives per-committee seeds and committee-<i> chain
// directories (shard's committeeConfig), so existing chains reopen.
type Cluster struct {
	cl *shard.Cluster
}

// NewCluster assembles a sharded cluster from the same options as New
// plus WithCommittees. WithTopology describes the GLOBAL
// provider/collector population; per-committee topologies are carved
// from it along the partition (provider index modulo K). WithLinks and
// explicit per-collector behaviours are incompatible with K > 1.
func NewCluster(opts ...Option) (*Cluster, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return newCluster(o)
}

// newCluster is the one constructor behind New and NewCluster.
func newCluster(o options) (*Cluster, error) {
	cl, err := shard.New(o.Config)
	if err != nil {
		return nil, err
	}
	return &Cluster{cl: cl}, nil
}

// Committees returns K.
func (c *Cluster) Committees() int { return c.cl.Committees() }

// Committee returns the view onto committee i.
func (c *Cluster) Committee(i int) (*Committee, error) {
	if k := c.Committees(); i < 0 || i >= k {
		return nil, fmt.Errorf("committee %d of %d: %w", i, k, ErrUnknownCommittee)
	}
	return &Committee{cl: c.cl, index: i}, nil
}

// Home returns the committee global provider k currently lives on.
func (c *Cluster) Home(provider int) (int, error) {
	slot, err := c.cl.Home(provider)
	return slot.Committee, err
}

// Submit stages one transaction from global provider k, routed to its
// home committee by the partition.
func (c *Cluster) Submit(provider int, kind string, payload []byte, isValid bool) (TxID, error) {
	_, id, err := c.cl.SubmitTx(provider, kind, payload, isValid)
	return id, err
}

// SubmitBatch stages a batch from one global provider, routed to its
// home committee. Semantics match Chain.SubmitBatch: the admitted
// prefix's IDs are always returned, with ErrBacklog alongside (resume
// from txs[len(ids)] after a round) when admission stopped early; a
// cancelled context admits nothing.
func (c *Cluster) SubmitBatch(ctx context.Context, provider int, txs []Tx) ([]TxID, error) {
	items := make([]node.Submission, len(txs))
	for i, t := range txs {
		items[i] = node.Submission(t)
	}
	_, ids, err := c.cl.SubmitBatch(ctx, provider, items)
	return ids, err
}

// SubmitCross stages a cross-shard transaction from provider `from` to
// provider `to`'s committee via the two-phase receipt protocol: a lock
// commits on the source committee, then the cluster relays an
// idempotent receipt carrying the inner transaction onto the
// destination, retrying until it commits. Same-committee pairs degrade
// to a plain submission. The returned ID is the lock's (or the direct
// transaction's); receipts reference it.
func (c *Cluster) SubmitCross(from, to int, kind string, payload []byte, isValid bool) (TxID, error) {
	return c.cl.SubmitCross(from, to, kind, payload, isValid)
}

// Rehome moves global provider k — with its linked collectors and
// their learned reputation state — onto committee dst. The carried RWM
// weight columns and misreport/forge scores are re-applied bitwise, so
// destination governors screen the mover exactly as the source
// governors would have. Requires the global topology to give each
// provider exclusive collectors (collector degree 1). Re-home at a
// round boundary; staged submissions on the two affected committees
// are dropped as by a crash.
func (c *Cluster) Rehome(provider, dst int) error { return c.cl.Rehome(provider, dst) }

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
		summaries[i] = RoundSummary{
			Serial:         res.Serial,
			Leader:         res.Leader,
			Records:        res.Records,
			Uploads:        res.Uploads,
			Argues:         res.Argues,
			StakeCommitted: res.StakeBlock != nil,
		}
	}
	return summaries, err
}

// PendingReceipts reports how many cross-shard receipts await
// commitment on their destination committees.
func (c *Cluster) PendingReceipts() int { return c.cl.PendingReceipts() }

// VerifyChain audits every committee's replicated chain.
func (c *Cluster) VerifyChain() error {
	for i := 0; i < c.Committees(); i++ {
		if err := (&Committee{cl: c.cl, index: i}).VerifyChain(); err != nil {
			return fmt.Errorf("committee %d: %w", i, err)
		}
	}
	return nil
}

// Metrics renders the cluster-level metrics — per-committee chain
// heads (chain.height{committee="i"}), cross-shard locks and rehomes —
// one per line, sorted by name. Per-committee protocol metrics live on
// each Committee.
func (c *Cluster) Metrics() string { return c.cl.Metrics().Dump() }

// MetricsSnapshot returns the cluster-level metrics as a structured
// snapshot.
func (c *Cluster) MetricsSnapshot() metrics.Snapshot { return c.cl.Metrics().Snapshot() }

// Close shuts every committee down, checkpointing and releasing any
// file-backed stores. It is idempotent. After Close, submissions and
// rounds fail with ErrClosed.
func (c *Cluster) Close() error { return c.cl.Close() }

// Committee is the view onto one committee of a Cluster: its chain,
// stakes, events and protocol metrics. A Chain embeds its only
// committee, so these are Chain's reads too. Submissions and rounds go
// through the Cluster (or Chain), which owns routing and the round;
// provider, collector and governor indices here are committee-local.
type Committee struct {
	cl    *shard.Cluster
	index int
}

func (cm *Committee) engine() *core.Engine { return cm.cl.Engine(cm.index) }

// Index returns the committee's index within the cluster.
func (cm *Committee) Index() int { return cm.index }

// Providers returns the global provider indices homed on this
// committee, in local order.
func (cm *Committee) Providers() []int { return cm.cl.Members(cm.index) }

// Height returns the committee's chain height.
func (cm *Committee) Height() uint64 {
	return cm.engine().Governor(0).Store().Height()
}

// Block retrieves the records of block s (the paper's retrieve(s)).
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

// VerifyChain audits the chain replicated across all the committee's
// governors: serial ordering, hash links, and transaction-root
// commitments.
func (cm *Committee) VerifyChain() error {
	eng := cm.engine()
	for j := 0; j < eng.Governors(); j++ {
		if err := ledger.VerifyChain(eng.Governor(j).Store()); err != nil {
			return fmt.Errorf("governor %d: %w", j, err)
		}
	}
	return nil
}

// RevenueShares returns the current revenue split across the
// committee's collectors (governor 0's view), the incentive signal of
// §3.4.3.
func (cm *Committee) RevenueShares() ([]float64, error) {
	return cm.engine().Governor(0).Table().RevenueShares()
}

// CollectorReputation returns collector c's full reputation vector in
// the paper's layout — s per-provider weights, then w_misreport and
// w_forge — from governor 0's view.
func (cm *Committee) CollectorReputation(collector int) ([]float64, error) {
	return cm.engine().Governor(0).Table().Vector(collector)
}

// Stakes returns the governors' current stake vector.
func (cm *Committee) Stakes() []uint64 { return cm.engine().Stakes() }

// TransferStake queues a stake transfer between governors for the next
// round's stake-transform block. A transfer beyond what the payer's
// stake and its pending transfers leave is refused.
func (cm *Committee) TransferStake(from, to int, amount uint64) error {
	return cm.engine().SubmitStakeTransfer(from, to, amount)
}

// PendingValid returns how many of provider k's valid transactions
// have not yet been recorded valid — zero once the Validity property
// has caught up.
func (cm *Committee) PendingValid(provider int) int {
	return cm.engine().Provider(provider).PendingValid()
}

// MempoolDepth reports how many staged submissions await the next
// round's drain (always zero right after a round without backpressure).
func (cm *Committee) MempoolDepth() int { return cm.engine().MempoolDepth() }

// Stats returns governor j's screening counters.
func (cm *Committee) Stats(governor int) GovernorStats {
	return cm.engine().Governor(governor).Stats()
}

// Metrics renders the committee's operational metrics — protocol
// counters, verdict-memo statistics and round-stage histograms —
// one per line, sorted by name.
func (cm *Committee) Metrics() string { return cm.engine().Metrics().Dump() }

// MetricsSnapshot returns the committee's metrics as a structured,
// JSON-serialisable snapshot (counters, gauges, histograms).
func (cm *Committee) MetricsSnapshot() metrics.Snapshot { return cm.engine().Metrics().Snapshot() }

// Trace returns the recorded events of one transaction, oldest first.
// Empty without WithEventLog, or once they have been evicted from the
// ring.
func (cm *Committee) Trace(id TxID) []Event {
	return cm.engine().Events().Select(events.Filter{Trace: id.String()})
}

// Events returns every event currently in the event ring, oldest
// first. Empty without WithEventLog.
func (cm *Committee) Events() []Event { return cm.engine().Events().Events() }

// buildOptions folds the option list over the defaults.
func buildOptions(opts []Option) (options, error) {
	o := options{shard.Config{Base: core.Config{
		Params:      reputation.DefaultParams(),
		ArgueWindow: node.DefaultArgueWindow,
		MaxDelay:    1,
	}}}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return options{}, err
		}
	}
	if o.Base.ChainDir == "" && (o.Base.SnapshotEvery != 0 || o.Base.SegmentBytes != 0) {
		return options{}, fmt.Errorf("WithSnapshotEvery/WithSegmentBytes need WithChainDir: %w", ErrBadOption)
	}
	return o, nil
}
