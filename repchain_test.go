package repchain

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repchain/internal/consensus"
	"repchain/internal/ledger"
	"repchain/internal/tx"
)

var testValidator = ValidatorFunc(func(t Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

func newTestChain(t *testing.T, extra ...Option) *Chain {
	t.Helper()
	opts := append([]Option{
		WithTopology(4, 4, 2),
		WithGovernors(3),
		WithValidator(testValidator),
		WithSeed(99),
	}, extra...)
	c, err := New(opts...)
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	return c
}

func TestNewRequiresValidOptions(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
	}{
		{"no validator", []Option{WithTopology(2, 2, 1), WithGovernors(2)}},
		{"no governors", []Option{WithTopology(2, 2, 1), WithValidator(testValidator)}},
		{"bad topology", []Option{WithTopology(3, 2, 1), WithGovernors(2), WithValidator(testValidator)}},
		{"nil validator option", []Option{WithValidator(nil)}},
		{"bad governors", []Option{WithGovernors(-1)}},
		{"bad limit", []Option{WithBlockLimit(-1)}},
		{"bad window", []Option{WithArgueWindow(0)}},
		{"bad delay", []Option{WithNetworkDelay(-1)}},
		{"bad params", []Option{WithTopology(2, 2, 1), WithGovernors(2), WithValidator(testValidator), WithReputationParams(2, 0.5, 1.1, 2)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.opts...); !errors.Is(err, ErrBadOption) {
				t.Fatalf("New() error = %v, want ErrBadOption", err)
			}
			if _, err := NewCluster(tt.opts...); !errors.Is(err, ErrBadOption) {
				t.Fatalf("NewCluster() error = %v, want ErrBadOption", err)
			}
		})
	}
}

func TestChainLifecycle(t *testing.T) {
	c := newTestChain(t)
	ids := make([]TxID, 0, 8)
	for i := 0; i < 8; i++ {
		valid := i%3 != 2
		payload := []byte{0, byte(i)}
		if valid {
			payload[0] = 1
		}
		id, err := c.Submit(i%4, "test/tx", payload, valid)
		if err != nil {
			t.Fatalf("Submit() error = %v", err)
		}
		ids = append(ids, id)
	}
	sum, err := c.RunRound()
	if err != nil {
		t.Fatalf("RunRound() error = %v", err)
	}
	if sum.Serial != 1 {
		t.Fatalf("Serial = %d", sum.Serial)
	}
	if c.Height() != 1 {
		t.Fatalf("Height() = %d", c.Height())
	}
	records, err := c.Block(1)
	if err != nil {
		t.Fatalf("Block(1) error = %v", err)
	}
	if len(records) == 0 {
		t.Fatal("block empty")
	}
	// Every record corresponds to a submitted transaction.
	known := make(map[TxID]bool, len(ids))
	for _, id := range ids {
		known[id] = true
	}
	for _, r := range records {
		if !known[r.ID] {
			t.Fatalf("unknown transaction %v in block", r.ID)
		}
	}
	if err := c.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain() error = %v", err)
	}
}

// TestChainMetricsDumpsHistogramFamilies checks that the text dump
// renders every snapshot series, labeled histograms included.
func TestChainMetricsDumpsHistogramFamilies(t *testing.T) {
	c := newTestChain(t)
	if _, err := c.Submit(0, "test/tx", []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	dump := c.Metrics()
	for _, want := range []string{`round.stage_seconds{stage="commit"}`, "engine.rounds_total", `screen.checked_total{collector=`} {
		if !strings.Contains(dump, want) {
			t.Errorf("Chain.Metrics() lacks %s:\n%s", want, dump)
		}
	}
}

func TestChainRevenueAndReputationAccessors(t *testing.T) {
	c := newTestChain(t)
	for r := 0; r < 3; r++ {
		for i := 0; i < 6; i++ {
			if _, err := c.Submit(i%4, "t", []byte{1, byte(i)}, true); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	shares, err := c.RevenueShares()
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 4 {
		t.Fatalf("shares = %v", shares)
	}
	vec, err := c.CollectorReputation(0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 providers × degree 2 over 4 collectors ⇒ s = 2; vector s+2.
	if len(vec) != 4 {
		t.Fatalf("reputation vector length = %d, want 4", len(vec))
	}
	st := c.Stats(0)
	if st.ReportsReceived == 0 {
		t.Fatal("no reports recorded")
	}
}

func TestChainStakeTransfer(t *testing.T) {
	c := newTestChain(t, WithStakes(4, 3, 3))
	if err := c.TransferStake(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	sum, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.StakeCommitted {
		t.Fatal("stake block not committed")
	}
	stakes := c.Stakes()
	if stakes[0] != 2 || stakes[1] != 5 {
		t.Fatalf("stakes = %v", stakes)
	}
}

// TestTransferStakeOverdraft: a transfer beyond the payer's stake is
// refused at the call through a Chain and through a Cluster's
// committee, matching consensus.ErrInsufficientStake, and moves nothing.
func TestTransferStakeOverdraft(t *testing.T) {
	chain := newTestChain(t, WithStakes(4, 3, 3))
	cluster, err := NewCluster(append(goldenOptions(), WithCommittees(2))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	view, err := cluster.Committee(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, cm := range []*Committee{chain.Committee, view} {
		before := fmt.Sprint(cm.Stakes())
		if err := cm.TransferStake(0, 1, 50); !errors.Is(err, consensus.ErrInsufficientStake) {
			t.Fatalf("facade %d: TransferStake(50) error = %v, want ErrInsufficientStake", i, err)
		}
		if after := fmt.Sprint(cm.Stakes()); after != before {
			t.Fatalf("facade %d: stakes %s after a refused transfer, want %s", i, after, before)
		}
	}
}

func TestChainAdversarialBehaviors(t *testing.T) {
	c := newTestChain(t,
		WithReputationParams(0.9, 0.8, 1.1, 2),
		WithCollectorBehaviors(
			CollectorBehavior{},
			CollectorBehavior{Misreport: 1},
			CollectorBehavior{Misreport: 1},
			CollectorBehavior{Misreport: 1},
		),
	)
	for r := 0; r < 6; r++ {
		for i := 0; i < 8; i++ {
			if _, err := c.Submit(i%4, "t", []byte{1, byte(i), byte(r)}, true); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// Drain rounds so argues settle.
	for r := 0; r < 6; r++ {
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 4; k++ {
		if pending := c.PendingValid(k); pending != 0 {
			t.Fatalf("provider %d has %d unsettled valid txs", k, pending)
		}
	}
	shares, err := c.RevenueShares()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if shares[i] >= shares[0] {
			t.Fatalf("liar %d share %.4f ≥ honest %.4f", i, shares[i], shares[0])
		}
	}
}

func TestBlockNotFound(t *testing.T) {
	c := newTestChain(t)
	if _, err := c.Block(1); err == nil {
		t.Fatal("Block(1) on empty chain succeeded")
	}
}

func TestSubmitBadProvider(t *testing.T) {
	c := newTestChain(t)
	if _, err := c.Submit(99, "t", []byte{1}, true); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("Submit(99) error = %v, want ErrUnknownProvider", err)
	}
	if _, err := c.SubmitBatch(context.Background(), -1, []Tx{{Kind: "t", Payload: []byte{1}, Valid: true}}); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("SubmitBatch(-1) error = %v, want ErrUnknownProvider", err)
	}
}

func TestWithMempoolValidation(t *testing.T) {
	tests := []struct {
		name string
		opt  Option
		want string
	}{
		{"zero cap", WithMempool(0), "mempool cap"},
		{"negative cap", WithMempool(-1), "mempool cap"},
		{"zero snapshot cadence", WithSnapshotEvery(0), "snapshot cadence"},
		{"negative snapshot cadence", WithSnapshotEvery(-3), "snapshot cadence"},
		{"zero segment bytes", WithSegmentBytes(0), "segment bytes"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(WithTopology(2, 2, 1), WithGovernors(2), WithValidator(testValidator), tt.opt)
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("New() error = %v, want ErrBadOption", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not name the bad field %q", err, tt.want)
			}
		})
	}
}

// TestStorageOptionsNeedChainDir: WithSnapshotEvery and WithSegmentBytes
// only shape the on-disk chain, so without WithChainDir both
// constructors refuse them instead of silently ignoring them.
func TestStorageOptionsNeedChainDir(t *testing.T) {
	base := []Option{WithTopology(2, 2, 1), WithGovernors(2), WithValidator(testValidator)}
	for name, opt := range map[string]Option{
		"WithSnapshotEvery": WithSnapshotEvery(4),
		"WithSegmentBytes":  WithSegmentBytes(1 << 16),
	} {
		opts := append(append([]Option(nil), base...), opt)
		if _, err := New(opts...); !errors.Is(err, ErrBadOption) || !strings.Contains(err.Error(), "WithChainDir") {
			t.Fatalf("New(%s) without WithChainDir: err = %v, want ErrBadOption naming WithChainDir", name, err)
		}
		if _, err := NewCluster(opts...); !errors.Is(err, ErrBadOption) {
			t.Fatalf("NewCluster(%s) without WithChainDir: err = %v, want ErrBadOption", name, err)
		}
		c, err := New(append(opts, WithChainDir(t.TempDir()))...)
		if err != nil {
			t.Fatalf("New(%s, WithChainDir) error = %v", name, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitBatchAndBacklog(t *testing.T) {
	c := newTestChain(t, WithMempool(2), WithBlockLimit(0))
	// Provider 0's cap is 2: a batch of 4 admits a 2-tx prefix and
	// reports backpressure.
	txs := make([]Tx, 4)
	for i := range txs {
		txs[i] = Tx{Kind: "t", Payload: []byte{1, byte(i)}, Valid: true}
	}
	ids, err := c.SubmitBatch(context.Background(), 0, txs)
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("SubmitBatch error = %v, want ErrBacklog", err)
	}
	if len(ids) != 2 {
		t.Fatalf("admitted prefix = %d txs, want 2", len(ids))
	}
	if c.MempoolDepth() != 2 {
		t.Fatalf("MempoolDepth() = %d, want 2", c.MempoolDepth())
	}
	// A round drains the mempool; the rest of the batch then fits.
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	rest, err := c.SubmitBatch(context.Background(), 0, txs[len(ids):])
	if err != nil {
		t.Fatalf("resumed batch error = %v", err)
	}
	if len(rest) != 2 {
		t.Fatalf("resumed batch admitted %d, want 2", len(rest))
	}
	sum, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 2 {
		t.Fatalf("second round committed %d records, want 2", sum.Records)
	}
}

func TestSubmitBatchCancelled(t *testing.T) {
	c := newTestChain(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids, err := c.SubmitBatch(ctx, 0, []Tx{{Kind: "t", Payload: []byte{1}, Valid: true}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SubmitBatch error = %v, want context.Canceled", err)
	}
	if len(ids) != 0 {
		t.Fatalf("cancelled batch admitted %d txs", len(ids))
	}
}

func TestRunRoundCtxCancelled(t *testing.T) {
	c := newTestChain(t)
	if _, err := c.Submit(0, "t", []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunRoundCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunRoundCtx error = %v, want context.Canceled", err)
	}
	// Staged traffic survives cancellation and commits next round.
	sum, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 1 {
		t.Fatalf("post-cancel round committed %d records, want 1", sum.Records)
	}
}

// TestClosed: Close is idempotent on both facades, submissions and
// rounds after it fail with ErrClosed, and a committee's reads still
// answer from the replicas' memory.
func TestClosed(t *testing.T) {
	chain := newTestChain(t)
	cluster, err := NewCluster(append(goldenOptions(), WithCommittees(2))...)
	if err != nil {
		t.Fatal(err)
	}
	view, err := cluster.Committee(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name   string
		submit func() error
		round  func() error
		close  func() error
		view   *Committee
	}{
		{"Chain",
			func() error { _, err := chain.Submit(0, "t", []byte{1}, true); return err },
			func() error { _, err := chain.RunRound(); return err },
			chain.Close, chain.Committee},
		{"Cluster",
			func() error { _, err := cluster.Submit(1, "t", []byte{1}, true); return err },
			func() error { _, err := cluster.RunRound(); return err },
			cluster.Close, view},
	} {
		t.Run(f.name, func(t *testing.T) {
			if err := f.submit(); err != nil {
				t.Fatal(err)
			}
			if err := f.round(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := f.close(); err != nil {
					t.Fatalf("Close #%d error = %v, want nil", i+1, err)
				}
			}
			if err := f.submit(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Submit after Close error = %v, want ErrClosed", err)
			}
			if err := f.round(); !errors.Is(err, ErrClosed) {
				t.Fatalf("RunRound after Close error = %v, want ErrClosed", err)
			}
			if h := f.view.Height(); h != 1 {
				t.Fatalf("Height after Close = %d, want 1", h)
			}
			if recs, err := f.view.Block(1); err != nil || len(recs) != 1 {
				t.Fatalf("Block(1) after Close = %d records, %v; want 1, nil", len(recs), err)
			}
			if err := f.view.VerifyChain(); err != nil {
				t.Fatalf("VerifyChain after Close: %v", err)
			}
		})
	}
}

// TestMempoolBurstCommitsFully is the acceptance gate for the bounded
// mempool: a 10k-transaction burst from 8 providers through a mempool
// capped at 128 per provider commits completely under backpressure.
func TestMempoolBurstCommitsFully(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-tx burst skipped in -short mode")
	}
	const burst = 10_000
	c, err := New(
		WithTopology(8, 4, 2),
		WithGovernors(3),
		WithValidator(testValidator),
		WithSeed(7),
		WithMempool(128),
		WithBlockLimit(512),
	)
	if err != nil {
		t.Fatal(err)
	}
	submitted, committed, rounds := 0, 0, 0
	for submitted < burst || c.MempoolDepth() > 0 {
		for submitted < burst {
			_, err := c.Submit(submitted%8, "burst", []byte{1, byte(submitted), byte(submitted >> 8)}, true)
			if errors.Is(err, ErrBacklog) {
				break // provider at its cap: run a round, then resume
			}
			if err != nil {
				t.Fatalf("submit %d: %v", submitted, err)
			}
			submitted++
		}
		sum, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		committed += sum.Records
		rounds++
		if rounds > burst/64 {
			t.Fatalf("burst failed to drain: %d/%d committed after %d rounds", committed, burst, rounds)
		}
	}
	if committed != burst {
		t.Fatalf("committed %d of %d burst transactions", committed, burst)
	}
	snap := c.MetricsSnapshot()
	if admitted := snap.Counters["mempool.admitted_total"]; admitted != burst {
		t.Fatalf("mempool.admitted_total = %v, want %d", admitted, burst)
	}
	if err := c.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

// TestMempoolOverloadIsFair offers the chain four times what it can
// commit — 8 providers × 32 transactions a round against a 64-record
// block, for 20 rounds — through mempools capped at 64 per provider.
// One arrival-order queue with a per-provider cap shares the blocks
// out: no provider's committed count trails another's by more than one
// block.
func TestMempoolOverloadIsFair(t *testing.T) {
	const providers, perRound, rounds, limit = 8, 32, 20, 64
	c, err := New(
		WithTopology(providers, 4, 2),
		WithGovernors(3),
		WithValidator(testValidator),
		WithSeed(7),
		WithMempool(64),
		WithBlockLimit(limit),
	)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for k := 0; k < providers; k++ {
			txs := make([]Tx, perRound)
			for i := range txs {
				txs[i] = Tx{Kind: "load", Payload: []byte{1, byte(k), byte(r), byte(i)}, Valid: true}
			}
			if _, err := c.SubmitBatch(context.Background(), k, txs); err != nil && !errors.Is(err, ErrBacklog) {
				t.Fatal(err)
			}
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	committed := make(map[string]int, providers)
	for s := uint64(1); s <= c.Height(); s++ {
		recs, err := c.Block(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			committed[rec.Provider]++
		}
	}
	lo, hi := rounds*limit, 0
	for k := 0; k < providers; k++ {
		n := committed[fmt.Sprintf("provider/%d", k)]
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > limit {
		t.Fatalf("committed per provider %v: spread %d, want at most %d", committed, hi-lo, limit)
	}
	t.Logf("committed per provider: %v", committed)
}

func TestChainIrregularLinks(t *testing.T) {
	c, err := New(
		WithTopology(3, 2, 0),
		WithLinks([][]int{{0, 1}, {0}, {1}}),
		WithGovernors(2),
		WithValidator(testValidator),
		WithSeed(3),
	)
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(i%3, "t", []byte{1, byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records == 0 {
		t.Fatal("irregular topology committed nothing")
	}
	if err := c.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

func TestChainPersistence(t *testing.T) {
	dir := t.TempDir()
	open := func() *Chain {
		c, err := New(
			WithTopology(2, 2, 1),
			WithGovernors(2),
			WithValidator(testValidator),
			WithSeed(4),
			WithChainDir(dir),
		)
		if err != nil {
			t.Fatalf("New() error = %v", err)
		}
		return c
	}
	c1 := open()
	if _, err := c1.Submit(0, "t", []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.RunRound(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close() error = %v", err)
	}

	c2 := open()
	defer func() {
		if err := c2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	if c2.Height() != 1 {
		t.Fatalf("reloaded height = %d, want 1", c2.Height())
	}
	if _, err := c2.RunRound(); err != nil {
		t.Fatal(err)
	}
	if c2.Height() != 2 {
		t.Fatalf("post-restart height = %d, want 2", c2.Height())
	}
}

func TestChainSnapshotPersistence(t *testing.T) {
	dir := t.TempDir()
	open := func() *Chain {
		c, err := New(
			WithTopology(2, 2, 1),
			WithGovernors(2),
			WithValidator(testValidator),
			WithSeed(4),
			WithChainDir(dir),
			WithSnapshotEvery(2),
			WithSegmentBytes(1024),
		)
		if err != nil {
			t.Fatalf("New() error = %v", err)
		}
		return c
	}
	c1 := open()
	for i := 0; i < 6; i++ {
		if _, err := c1.Submit(0, "t", []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close() error = %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "governor-0.chain", "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots on disk after 6 rounds at cadence 2 (err=%v)", err)
	}

	c2 := open()
	defer func() {
		if err := c2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	if c2.Height() != 6 {
		t.Fatalf("reloaded height = %d, want 6", c2.Height())
	}
	if err := c2.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain() over snapshotted chain: %v", err)
	}
	if _, err := c2.RunRound(); err != nil {
		t.Fatal(err)
	}
	if c2.Height() != 7 {
		t.Fatalf("post-restart height = %d, want 7", c2.Height())
	}
}

func Example() {
	chain, err := New(
		WithTopology(2, 2, 1),
		WithGovernors(2),
		WithValidator(ValidatorFunc(func(t Transaction) bool { return len(t.Payload) > 0 && t.Payload[0] == 1 })),
		WithSeed(1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := chain.Submit(0, "demo", []byte{1}, true); err != nil {
		fmt.Println("error:", err)
		return
	}
	sum, err := chain.RunRound()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("block %d with %d record(s)\n", sum.Serial, sum.Records)
	// Output: block 1 with 1 record(s)
}

// TestProviderBatchSplitAcrossBlocks: one 32-transaction SubmitBatch
// under a 10-record block limit drains over several rounds, and each
// drained part is signed as its own batch of at most 10 leaves. The
// chain verifies, every record verifies against its provider from its
// own block's bytes alone, and every valid transaction settles.
func TestProviderBatchSplitAcrossBlocks(t *testing.T) {
	c := newTestChain(t, WithBlockLimit(10))
	defer c.Close()
	txs := make([]Tx, 32)
	for i := range txs {
		txs[i] = Tx{Kind: "split", Payload: []byte{1, byte(i)}, Valid: true}
	}
	if ids, err := c.SubmitBatch(context.Background(), 0, txs); err != nil || len(ids) != len(txs) {
		t.Fatalf("SubmitBatch admitted %d: %v", len(ids), err)
	}
	for n := 0; c.PendingValid(0) > 0 || c.MempoolDepth() > 0; n++ {
		if n == 40 {
			t.Fatalf("%d valid transactions still pending after 40 rounds", c.PendingValid(0))
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	e := c.engine()
	pub := e.Roster().Providers[0].PublicKey
	st := e.Governor(0).Store()
	blocks, records := 0, 0
	parts := map[[64]byte]bool{}
	for s := uint64(1); s <= st.Height(); s++ {
		b, err := st.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := ledger.DecodeBlockBytes(b.EncodeBytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(alone.Records) > 0 {
			blocks++
		}
		for i, r := range alone.Records {
			if err := r.Signed.VerifyProvider(pub); err != nil {
				t.Fatalf("block %d record %d: %v", s, i, err)
			}
			if n := len(r.Signed.Batch.Leaves); n > 10 {
				t.Fatalf("block %d record %d: batch of %d leaves, want at most the limit 10", s, i, n)
			}
			parts[r.Signed.Batch.Sig] = true
		}
		records += len(alone.Records)
	}
	if blocks < 4 || records < len(txs) || len(parts) < 4 {
		t.Fatalf("%d records over %d blocks under %d batches, want all %d over at least 4 blocks and 4 batches",
			records, blocks, len(parts), len(txs))
	}
}

// TestSteadyRoundSignsOncePerProvider: a round of eight 32-transaction
// SubmitBatch calls carries eight provider signatures — its block's
// batch table holds one batch per provider, each with all 32 leaves.
func TestSteadyRoundSignsOncePerProvider(t *testing.T) {
	assertOneBatchPerProvider(t, func(c *Chain, shares [][]Tx) error {
		for k, share := range shares {
			if _, err := c.SubmitBatch(context.Background(), k, share); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestOneByOneRoundSignsOncePerProvider is its sibling with every
// transaction submitted alone, interleaved across the providers: the
// drain still signs once per provider, so the block is the same eight
// batches of 32 leaves.
func TestOneByOneRoundSignsOncePerProvider(t *testing.T) {
	assertOneBatchPerProvider(t, func(c *Chain, shares [][]Tx) error {
		for i := range shares[0] {
			for k, share := range shares {
				if _, err := c.Submit(k, share[i].Kind, share[i].Payload, share[i].Valid); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// assertOneBatchPerProvider has submit hand over eight providers' 32
// transactions each, runs one round, and checks the block: 256 records
// under 8 provider signatures of 32 leaves each.
func assertOneBatchPerProvider(t *testing.T, submit func(c *Chain, shares [][]Tx) error) {
	t.Helper()
	c, err := New(WithTopology(8, 4, 2), WithGovernors(3), WithValidator(testValidator), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shares := make([][]Tx, 8)
	for k := range shares {
		shares[k] = make([]Tx, 32)
		for i := range shares[k] {
			shares[k][i] = Tx{Kind: "steady", Payload: []byte{1, byte(i), byte(k)}, Valid: true}
		}
	}
	if err := submit(c, shares); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	b, err := c.engine().Governor(0).Store().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := ledger.DecodeBlockBytes(b.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	batches := map[*tx.Batch]bool{}
	for _, r := range alone.Records {
		batches[r.Signed.Batch] = true
		if len(r.Signed.Batch.Leaves) != 32 {
			t.Fatalf("a batch of %d leaves, want 32", len(r.Signed.Batch.Leaves))
		}
	}
	if len(alone.Records) != 256 || len(batches) != 8 {
		t.Fatalf("%d records under %d provider signatures, want 256 under 8", len(alone.Records), len(batches))
	}
}
