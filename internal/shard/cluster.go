package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"

	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/metrics"
	"repchain/internal/node"
)

// seedStride separates committee seed spaces. Engines derive per-node
// streams from small additive offsets of their seed (+1000+c, +2000+j),
// so committees a full 2³² apart can never collide for any realistic
// node count. Committee 0 keeps the base seed, which is one of the two
// halves of the K=1 byte-identity guarantee (the other is passing the
// base config through untouched).
const seedStride = int64(1) << 32

// receiptRetry is how many destination-committee rounds a submitted
// receipt may stay uncommitted before it is resubmitted.
const receiptRetry = 4

// Config describes a committee-sharded cluster.
type Config struct {
	// Base is the template configuration. Spec describes the GLOBAL
	// topology: all providers and collectors across every committee.
	// Governors, Params, BlockLimit, and the rest apply per committee.
	Base core.Config
	// Committees is K. Zero or one runs the base config unsharded.
	Committees int
}

// Cluster is K committees running the protocol in parallel over a
// provider partition, plus the cross-shard receipt relay between them.
// Methods are safe for concurrent use; rounds across committees run
// concurrently inside RunRoundCtx but the relay state is only touched
// between rounds.
type Cluster struct {
	mu      sync.Mutex
	cfg     Config
	engines []*core.Engine
	closed  bool

	// members[i] lists global provider indices on committee i, in
	// local-index order; home inverts it. Initialized from the
	// partition function and mutated only by Rehome.
	members [][]int
	home    []identity.CommitteeSlot

	// Cross-shard receipt relay state; see receipt.go. scanned[i] is
	// the highest committee-i serial the relay has walked, so blocks
	// committed during rounds that error (chaos aborts) are still
	// picked up on the next successful pass.
	pending   []*pendingReceipt
	seenLocks map[crypto.Hash]bool
	scanned   []uint64

	reg       *metrics.Registry
	heightVec *metrics.GaugeVec
	crossTx   *metrics.Counter
	rehomes   *metrics.Counter
}

// New builds and starts a cluster. With Committees <= 1 the base
// configuration reaches core.New untouched except for the cross-shard
// validator wrapper (inert for ordinary transaction kinds), keeping
// the single-committee chain — the facade's Chain — byte-identical to
// a bare engine. On an error, the committees already built are closed.
func New(cfg Config) (_ *Cluster, err error) {
	k := cfg.Committees
	if k < 0 {
		return nil, fmt.Errorf("%d committees: %w", k, core.ErrBadConfig)
	}
	if k == 0 {
		k = 1
	}
	if cfg.Base.Spec.Providers <= 0 {
		return nil, fmt.Errorf("global spec %+v: %w", cfg.Base.Spec, core.ErrBadConfig)
	}
	part, err := identity.NewPartition(cfg.Base.Spec.Providers, k)
	if err != nil {
		return nil, fmt.Errorf("%w: partition: %w", core.ErrBadConfig, err)
	}
	cl := &Cluster{
		cfg:       cfg,
		members:   make([][]int, k),
		home:      make([]identity.CommitteeSlot, cfg.Base.Spec.Providers),
		seenLocks: make(map[crypto.Hash]bool),
		reg:       metrics.NewRegistry(),
	}
	for i := 0; i < k; i++ {
		cl.members[i] = append([]int(nil), part.Members(i)...)
	}
	for p := range cl.home {
		slot, _ := part.Home(p)
		cl.home[p] = slot
	}
	cl.heightVec = cl.reg.GaugeVec("chain.height", "committee")
	cl.crossTx = cl.reg.Counter("shard.cross_tx_total")
	cl.rehomes = cl.reg.Counter("shard.rehomes_total")

	cl.engines = make([]*core.Engine, 0, k)
	defer func() {
		if err != nil {
			for _, eng := range cl.engines {
				_ = eng.Close()
			}
		}
	}()
	for i := 0; i < k; i++ {
		ecfg, err := cl.committeeConfig(i)
		if err != nil {
			return nil, err
		}
		eng, err := core.New(ecfg)
		if err != nil {
			return nil, fmt.Errorf("shard: committee %d: %w", i, err)
		}
		cl.engines = append(cl.engines, eng)
	}
	// Start the relay scan at the resumed chain heads: locks committed
	// before a restart re-enter via fresh submissions, not a re-walk of
	// history (which segment pruning may have dropped anyway).
	cl.scanned = make([]uint64, k)
	for i, eng := range cl.engines {
		cl.scanned[i] = eng.Governor(0).Store().Height()
	}
	cl.publishHeights()
	return cl, nil
}

// committeeConfig derives committee i's engine configuration from the
// base. It is the one place K=1 is special: a lone committee takes the
// base as is (modulo the validator wrapper) — base seed, ChainDir
// itself, explicit Links allowed — so a directory an unsharded chain
// wrote reopens. K>1 carves its slice of the global topology.
func (cl *Cluster) committeeConfig(i int) (core.Config, error) {
	ecfg := cl.cfg.Base
	ecfg.Validator = wrapValidator(cl.cfg.Base.Validator)
	if len(cl.members) == 1 {
		return ecfg, nil
	}
	spec := cl.cfg.Base.Spec
	if ecfg.Links != nil {
		return core.Config{}, fmt.Errorf("explicit links are unsupported with multiple committees: %w", core.ErrBadConfig)
	}
	if err := spec.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("%w: global spec: %w", core.ErrBadConfig, err)
	}
	s := spec.CollectorDegree()
	li := len(cl.members[i])
	if (li*spec.Degree)%s != 0 {
		return core.Config{}, fmt.Errorf(
			"committee %d: %d providers × degree %d not divisible by collector degree %d: %w",
			i, li, spec.Degree, s, core.ErrBadConfig)
	}
	ecfg.Spec = identity.TopologySpec{
		Providers:  li,
		Collectors: li * spec.Degree / s,
		Degree:     spec.Degree,
	}
	ecfg.Seed = cl.cfg.Base.Seed + int64(i)*seedStride
	if cl.cfg.Base.ChainDir != "" {
		ecfg.ChainDir = filepath.Join(cl.cfg.Base.ChainDir, fmt.Sprintf("committee-%d", i))
	}
	if cl.cfg.Base.Behaviors != nil {
		if len(cl.cfg.Base.Behaviors) != spec.Collectors {
			return core.Config{}, fmt.Errorf("%d behaviours for %d global collectors: %w",
				len(cl.cfg.Base.Behaviors), spec.Collectors, core.ErrBadConfig)
		}
		off := 0
		for j := 0; j < i; j++ {
			off += len(cl.members[j]) * spec.Degree / s
		}
		ecfg.Behaviors = cl.cfg.Base.Behaviors[off : off+ecfg.Spec.Collectors]
	}
	return ecfg, nil
}

// Committees returns K.
func (cl *Cluster) Committees() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.engines)
}

// Engine returns committee i's engine, for inspection and chaos
// injection. Returns nil for an out-of-range index.
func (cl *Cluster) Engine(i int) *core.Engine {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if i < 0 || i >= len(cl.engines) {
		return nil
	}
	return cl.engines[i]
}

// Home returns the committee slot of global provider k.
func (cl *Cluster) Home(k int) (identity.CommitteeSlot, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.homeLocked(k)
}

func (cl *Cluster) homeLocked(k int) (identity.CommitteeSlot, error) {
	if k < 0 || k >= len(cl.home) {
		return identity.CommitteeSlot{}, fmt.Errorf("provider %d: %w", k, core.ErrUnknownProvider)
	}
	return cl.home[k], nil
}

// Members returns the global provider indices on committee i in local
// order. The returned slice is a copy.
func (cl *Cluster) Members(i int) []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if i < 0 || i >= len(cl.members) {
		return nil
	}
	return append([]int(nil), cl.members[i]...)
}

// SubmitTx routes a same-shard submission from global provider k to
// its home committee, returning that committee's index and the staged
// transaction's ID: SubmitBatch for one transaction.
func (cl *Cluster) SubmitTx(k int, kind string, payload []byte, valid bool) (int, crypto.Hash, error) {
	c, ids, err := cl.SubmitBatch(context.Background(), k, []node.Submission{{Kind: kind, Payload: payload, Valid: valid}})
	if len(ids) == 0 {
		return c, crypto.Hash{}, err
	}
	return c, ids[0], nil
}

// submitOne stages one submission with eng's provider k and returns its
// ID.
func submitOne(eng *core.Engine, k int, kind string, payload []byte, valid bool) (crypto.Hash, error) {
	ids, err := eng.SubmitBatch(context.Background(), k, []node.Submission{{Kind: kind, Payload: payload, Valid: valid}})
	if len(ids) == 0 {
		return crypto.Hash{}, err
	}
	return ids[0], nil
}

// SubmitBatch routes a batch of same-shard submissions from global
// provider k to its home committee, returning that committee's index
// and the admitted prefix's IDs (core.Engine.SubmitBatch).
func (cl *Cluster) SubmitBatch(ctx context.Context, k int, items []node.Submission) (int, []crypto.Hash, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return 0, nil, core.ErrClosed
	}
	slot, err := cl.homeLocked(k)
	if err != nil {
		return 0, nil, err
	}
	staged, err := cl.engines[slot.Committee].SubmitBatch(ctx, slot.Local, items)
	return slot.Committee, staged, err
}

// RunRound runs one cluster round: due cross-shard receipts are
// injected, every committee runs its protocol round concurrently, and
// freshly committed blocks are scanned for lock and receipt records.
// The per-committee results are returned in committee order; a
// committee's failure leaves its slot zero and is joined into the
// returned error without stopping the other committees.
func (cl *Cluster) RunRound() ([]core.RoundResult, error) {
	return cl.RunRoundCtx(context.Background())
}

// RunRoundCtx is RunRound with a context bound; cancellation aborts
// in-flight committee rounds at their next phase boundary.
func (cl *Cluster) RunRoundCtx(ctx context.Context) ([]core.RoundResult, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, core.ErrClosed
	}
	cl.injectReceipts()

	k := len(cl.engines)
	results := make([]core.RoundResult, k)
	errs := make([]error, k)
	if k == 1 {
		results[0], errs[0] = cl.engines[0].RunRoundCtx(ctx)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = cl.engines[i].RunRoundCtx(ctx)
			}(i)
		}
		wg.Wait()
	}
	var roundErrs []error
	for i, err := range errs {
		if err != nil {
			roundErrs = append(roundErrs, fmt.Errorf("committee %d: %w", i, err))
		}
	}
	if k > 1 {
		cl.scanCommitted()
	}
	cl.publishHeights()
	return results, errors.Join(roundErrs...)
}

// publishHeights refreshes the per-committee chain head gauges.
func (cl *Cluster) publishHeights() {
	for i, eng := range cl.engines {
		cl.heightVec.With(strconv.Itoa(i)).Set(float64(eng.Governor(0).Store().Height()))
	}
}

// PendingReceipts returns the number of cross-shard receipts awaiting
// commitment on their destination committee.
func (cl *Cluster) PendingReceipts() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.pending)
}

// Metrics returns the cluster-level registry: per-committee chain
// heads, cross-shard locks and rehomes. Per-committee engine
// metrics stay on each engine's own registry.
func (cl *Cluster) Metrics() *metrics.Registry { return cl.reg }

// Close shuts every committee down. Like core.Engine.Close it is
// idempotent: the first call wins, later calls return nil.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil
	}
	cl.closed = true
	var errs []error
	for i, eng := range cl.engines {
		if err := eng.Close(); err != nil {
			errs = append(errs, fmt.Errorf("committee %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
