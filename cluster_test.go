package repchain

import (
	"context"
	"errors"
	"testing"

	"repchain/internal/core"
)

func goldenOptions() []Option {
	return []Option{
		WithTopology(8, 4, 2),
		WithGovernors(3),
		WithBlockLimit(16),
		WithSeed(42),
		WithValidator(ValidatorFunc(func(t Transaction) bool {
			return len(t.Payload) > 0 && t.Payload[0] == 1
		})),
	}
}

func goldenPayload(valid bool, a, b byte) []byte {
	p := []byte{0, a, b}
	if valid {
		p[0] = 1
	}
	return p
}

// goldenHashes are the block hashes of the reference K=1 run, captured
// on the pre-cluster engine. They pin the byte-identity guarantee: a
// one-committee cluster must still produce this exact chain.
var goldenHashes = []string{
	"00f2202a4d16f68122926edd6dcfa9237c71ed3cb91e748347d54d5f1f011cb1",
	"83fba54558ce3800ff441bd066927e28cad7b57f9cb471b6a671d1d025bfa288",
	"d6578f2d01d52c055521bc4d47d0daff1a9a47d1cb853e61a4f39550677fd808",
	"a990a0c9954123163899badc34b496e4e1ca1f4c2c48cacac62b664a0cab1bc6",
	"34483077efda13de224bc1f5de37295efe027d19381f3fb20c22301b1d65c271",
}

// TestGoldenHashes runs the reference workload through every way in —
// New, NewCluster, and NewCluster with an explicit WithCommittees(1) —
// and demands the golden chain from each: K=1 identity holds because
// all three are one constructor and one round.
func TestGoldenHashes(t *testing.T) {
	type facade struct {
		submit func(k int, payload []byte, valid bool) error
		round  func() error
		view   *Committee
		close  func() error
	}
	ofCluster := func(opts ...Option) (facade, error) {
		cl, err := NewCluster(opts...)
		if err != nil {
			return facade{}, err
		}
		return facade{
			submit: func(k int, p []byte, valid bool) error { _, err := cl.Submit(k, "golden", p, valid); return err },
			round:  func() error { _, err := cl.RunRound(); return err },
			view:   &Committee{cl: cl.cl},
			close:  cl.Close,
		}, nil
	}
	for _, tt := range []struct {
		name  string
		build func() (facade, error)
	}{
		{"New", func() (facade, error) {
			c, err := New(goldenOptions()...)
			if err != nil {
				return facade{}, err
			}
			return facade{
				submit: func(k int, p []byte, valid bool) error { _, err := c.Submit(k, "golden", p, valid); return err },
				round:  func() error { _, err := c.RunRound(); return err },
				view:   c.Committee,
				close:  c.Close,
			}, nil
		}},
		{"NewCluster", func() (facade, error) { return ofCluster(goldenOptions()...) }},
		{"NewCluster/WithCommittees(1)", func() (facade, error) {
			return ofCluster(append(goldenOptions(), WithCommittees(1))...)
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			f, err := tt.build()
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			for r := 0; r < len(goldenHashes); r++ {
				for j := 0; j < 12; j++ {
					valid := j%3 != 2
					if err := f.submit(j%8, goldenPayload(valid, byte(j), byte(r)), valid); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.round(); err != nil {
					t.Fatal(err)
				}
			}
			st := f.view.engine().Governor(0).Store()
			for s, want := range goldenHashes {
				b, err := st.Get(uint64(s + 1))
				if err != nil {
					t.Fatal(err)
				}
				if got := b.Hash().String(); got != want {
					t.Fatalf("block %d hash %s, want golden %s", s+1, got, want)
				}
			}
		})
	}
}

func TestClusterFacade(t *testing.T) {
	cluster, err := NewCluster(
		WithTopology(8, 16, 2), // collector degree 1: every committee split is legal
		WithGovernors(3),
		WithCommittees(2),
		WithSeed(7),
		WithBlockLimit(32),
		WithEventLog(1024),
		WithValidator(ValidatorFunc(func(t Transaction) bool {
			return len(t.Payload) > 0 && t.Payload[0] == 1
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if got := cluster.Committees(); got != 2 {
		t.Fatalf("Committees() = %d, want 2", got)
	}
	if home, err := cluster.Home(3); err != nil || home != 1 {
		t.Fatalf("Home(3) = %d, %v, want committee 1", home, err)
	}
	if _, err := cluster.Committee(2); !errors.Is(err, ErrUnknownCommittee) {
		t.Fatalf("Committee(2) err = %v, want ErrUnknownCommittee", err)
	}

	// Batch submission routes by the partition; cross-shard submission
	// locks on the source committee.
	ids, err := cluster.SubmitBatch(context.Background(), 0, []Tx{
		{Kind: "batch", Payload: goldenPayload(true, 1, 0), Valid: true},
		{Kind: "batch", Payload: goldenPayload(true, 2, 0), Valid: true},
	})
	if err != nil || len(ids) != 2 {
		t.Fatalf("SubmitBatch: ids=%d err=%v", len(ids), err)
	}
	crossID, err := cluster.SubmitCross(0, 1, "wire", goldenPayload(true, 3, 0), true)
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < 6 && (r == 0 || cluster.PendingReceipts() > 0); r++ {
		summaries, err := cluster.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if len(summaries) != 2 {
			t.Fatalf("%d round summaries, want 2", len(summaries))
		}
	}
	if got := cluster.PendingReceipts(); got != 0 {
		t.Fatalf("%d receipts still pending", got)
	}
	if err := cluster.VerifyChain(); err != nil {
		t.Fatal(err)
	}

	cm0, err := cluster.Committee(0)
	if err != nil {
		t.Fatal(err)
	}
	if cm0.Height() == 0 {
		t.Fatal("committee 0 committed nothing")
	}
	if got := cm0.Providers(); len(got) != 4 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("committee 0 providers = %v, want the evens", got)
	}
	if evs := cm0.Trace(crossID); len(evs) == 0 {
		t.Fatal("no trace events for the cross-shard lock on its source committee")
	}
	snap := cluster.MetricsSnapshot()
	if snap.Gauges[`chain.height{committee="0"}`] == 0 {
		t.Fatalf("cluster snapshot lacks per-committee heights: %v", snap.Gauges)
	}
	if snap.Counters["shard.cross_tx_total"] != 1 {
		t.Fatalf("shard.cross_tx_total = %v, want 1", snap.Counters["shard.cross_tx_total"])
	}
	if cm0.MetricsSnapshot().Counters["engine.rounds_total"] == 0 {
		t.Fatal("committee snapshot lacks engine metrics")
	}
}

func TestNewRejectsClusterOptions(t *testing.T) {
	if _, err := New(append(goldenOptions(), WithCommittees(2))...); !errors.Is(err, ErrBadOption) {
		t.Fatalf("New with WithCommittees: err = %v, want ErrBadOption", err)
	}
	for name, opt := range map[string]Option{
		"WithCommittees(0)":     WithCommittees(0),
		"empty committee":       WithCommittees(16),
		"links with K=2":        WithLinks([][]int{{0}, {1}, {2}, {3}, {0}, {1}, {2}, {3}}),
		"too few behaviours":    WithCollectorBehaviors(CollectorBehavior{}),
		"indivisible committee": WithCommittees(3),
	} {
		if _, err := NewCluster(append(goldenOptions(), WithCommittees(2), opt)...); !errors.Is(err, ErrBadOption) {
			t.Errorf("NewCluster %s: err = %v, want ErrBadOption", name, err)
		}
	}
}

// batchFacade is what TestSubmitBatchMatchesSubmit needs of a facade.
type batchFacade struct {
	submit func(k int, tx Tx) (TxID, error)
	batch  func(k int, txs []Tx) ([]TxID, error)
	round  func() error
	// heads returns every committee's head block hash.
	heads func() []string
}

func headHash(t *testing.T, e *core.Engine) string {
	t.Helper()
	b, err := e.Governor(0).Store().Head()
	if err != nil {
		t.Fatal(err)
	}
	return b.Hash().String()
}

func chainBatchFacade(t *testing.T) batchFacade {
	c, err := New(goldenOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return batchFacade{
		submit: func(k int, tx Tx) (TxID, error) { return c.Submit(k, tx.Kind, tx.Payload, tx.Valid) },
		batch:  func(k int, txs []Tx) ([]TxID, error) { return c.SubmitBatch(context.Background(), k, txs) },
		round:  func() error { _, err := c.RunRound(); return err },
		heads:  func() []string { return []string{headHash(t, c.engine())} },
	}
}

func clusterBatchFacade(t *testing.T) batchFacade {
	c, err := NewCluster(append(goldenOptions(), WithCommittees(2))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return batchFacade{
		submit: func(k int, tx Tx) (TxID, error) { return c.Submit(k, tx.Kind, tx.Payload, tx.Valid) },
		batch:  func(k int, txs []Tx) ([]TxID, error) { return c.SubmitBatch(context.Background(), k, txs) },
		round:  func() error { _, err := c.RunRound(); return err },
		heads: func() []string {
			var out []string
			for i := 0; i < c.Committees(); i++ {
				out = append(out, headHash(t, c.cl.Engine(i)))
			}
			return out
		},
	}
}

// TestSubmitBatchMatchesSubmit pins SubmitBatch, whose signatures are
// computed in parallel, to N × Submit on both facades: the same IDs in
// the same order, and after each round the same blocks.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	for name, build := range map[string]func(*testing.T) batchFacade{"chain": chainBatchFacade, "cluster": clusterBatchFacade} {
		t.Run(name, func(t *testing.T) {
			one, batch := build(t), build(t)
			for r := 0; r < 3; r++ {
				for k := 0; k < 8; k++ {
					txs := make([]Tx, 20)
					for i := range txs {
						valid := i%3 != 2
						txs[i] = Tx{Kind: "batch", Payload: append(goldenPayload(valid, byte(i), byte(r)), byte(k)), Valid: valid}
					}
					got, err := batch.batch(k, txs)
					if err != nil || len(got) != len(txs) {
						t.Fatalf("SubmitBatch admitted %d of %d: %v", len(got), len(txs), err)
					}
					for i, tx := range txs {
						want, err := one.submit(k, tx)
						if err != nil {
							t.Fatal(err)
						}
						if got[i] != want {
							t.Fatalf("round %d provider %d item %d: batch ID %s, Submit ID %s", r, k, i, got[i], want)
						}
					}
				}
				if err := one.round(); err != nil {
					t.Fatal(err)
				}
				if err := batch.round(); err != nil {
					t.Fatal(err)
				}
				a, b := one.heads(), batch.heads()
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("round %d committee %d: batch head %s, Submit head %s", r, i, b[i], a[i])
					}
				}
			}
		})
	}
}
