package repchain

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repchain/internal/core"
	"repchain/internal/crypto"
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

// goldenBatchHashes are the block hashes of the reference K=1 run.
// Each round's drain signs every provider's share once, so the bytes
// do not depend on how the client split its submissions: one by one or
// one SubmitBatch per provider, every facade must produce this chain.
var goldenBatchHashes = []string{
	"c3c9cea8273a8bb959369cf58096740721ce5f8ce792eef045f999b832dd68c6",
	"91d61a0a558dfac57d18f4981c5180825db2060e47911573115e2b91a318cc72",
	"f9c5646e6dd8cdf9dcbd77983312a0c58f4826eed1c47cb9b2db54d9e2da2f73",
	"2357d27461a300533576b1332e399d628a82c7b988187b4154a10e47fc5e97ed",
	"a54b665194d122434e25dab3dbda7ffcd3e237b8c6d0389b223bac4a80bfcf35",
}

// TestGoldenHashes runs the reference workload through every way in —
// New, NewCluster, and NewCluster with an explicit WithCommittees(1),
// one transaction at a time, and New with each provider's share of a
// round handed over as one SubmitBatch — and demands the golden chain
// from each: K=1 identity holds because all three constructors are one
// constructor and one round, and the split does not matter because the
// drain signs per provider.
func TestGoldenHashes(t *testing.T) {
	type facade struct {
		// submit hands provider k's share of a round over.
		submit func(k int, txs []Tx) error
		round  func() error
		view   *Committee
		close  func() error
	}
	oneByOne := func(submit func(k int, kind string, payload []byte, valid bool) (TxID, error)) func(int, []Tx) error {
		return func(k int, txs []Tx) error {
			for _, tx := range txs {
				if _, err := submit(k, tx.Kind, tx.Payload, tx.Valid); err != nil {
					return err
				}
			}
			return nil
		}
	}
	ofChain := func(batched bool) (facade, error) {
		c, err := New(goldenOptions()...)
		if err != nil {
			return facade{}, err
		}
		f := facade{
			submit: oneByOne(c.Submit),
			round:  func() error { _, err := c.RunRound(); return err },
			view:   c.Committee,
			close:  c.Close,
		}
		if batched {
			f.submit = func(k int, txs []Tx) error { _, err := c.SubmitBatch(context.Background(), k, txs); return err }
		}
		return f, nil
	}
	ofCluster := func(opts ...Option) (facade, error) {
		cl, err := NewCluster(opts...)
		if err != nil {
			return facade{}, err
		}
		return facade{
			submit: oneByOne(cl.Submit),
			round:  func() error { _, err := cl.RunRound(); return err },
			view:   &Committee{cl: cl.cl},
			close:  cl.Close,
		}, nil
	}
	for _, tt := range []struct {
		name    string
		batched bool
		build   func() (facade, error)
	}{
		{"New", false, func() (facade, error) { return ofChain(false) }},
		{"NewCluster", false, func() (facade, error) { return ofCluster(goldenOptions()...) }},
		{"NewCluster/WithCommittees(1)", false, func() (facade, error) {
			return ofCluster(append(goldenOptions(), WithCommittees(1))...)
		}},
		{"New/SubmitBatch", true, func() (facade, error) { return ofChain(true) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			f, err := tt.build()
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			want := goldenBatchHashes
			for r := 0; r < len(want); r++ {
				// Twelve transactions over the 8 providers, in j order:
				// one after another, or each provider's share at once.
				shares := make([][]Tx, 8)
				for j := 0; j < 12; j++ {
					valid := j%3 != 2
					tx := Tx{Kind: "golden", Payload: goldenPayload(valid, byte(j), byte(r)), Valid: valid}
					if !tt.batched {
						if err := f.submit(j%8, []Tx{tx}); err != nil {
							t.Fatal(err)
						}
						continue
					}
					shares[j%8] = append(shares[j%8], tx)
				}
				for k, share := range shares {
					if len(share) > 0 {
						if err := f.submit(k, share); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := f.round(); err != nil {
					t.Fatal(err)
				}
			}
			st := f.view.engine().Governor(0).Store()
			for s, w := range want {
				b, err := st.Get(uint64(s + 1))
				if err != nil {
					t.Fatal(err)
				}
				if got := b.Hash().String(); got != w {
					t.Errorf("block %d hash %s, want golden %s", s+1, got, w)
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

// TestClusterRehome moves a provider between two committees through
// the facade: Home reports the destination, the mover's collectors
// arrive there with the reputation they had learned, a transaction it
// submits afterwards commits on the destination, and the destination's
// governors go on updating the migrated scores.
func TestClusterRehome(t *testing.T) {
	cluster, err := NewCluster(
		WithTopology(8, 16, 2), // collector degree 1: a provider moves with its collectors
		WithGovernors(3),
		WithCommittees(2),
		WithSeed(7),
		WithEventLog(1<<14),
		WithValidator(ValidatorFunc(func(t Transaction) bool {
			return len(t.Payload) > 0 && t.Payload[0] == 1
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	run := func(rounds int, providers ...int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			for _, p := range providers {
				valid := (p+r)%3 != 2
				if _, err := cluster.Submit(p, "train", goldenPayload(valid, byte(p), byte(r)), valid); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cluster.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
	}
	committee := func(i int) *Committee {
		t.Helper()
		cm, err := cluster.Committee(i)
		if err != nil {
			t.Fatal(err)
		}
		if cm.Index() != i {
			t.Fatalf("Committee(%d).Index() = %d", i, cm.Index())
		}
		return cm
	}
	reputations := func(cm *Committee, collectors ...int) [][]float64 {
		t.Helper()
		out := make([][]float64, len(collectors))
		for n, c := range collectors {
			v, err := cm.CollectorReputation(c)
			if err != nil {
				t.Fatal(err)
			}
			out[n] = v
		}
		return out
	}
	run(6, 0, 1, 2, 3, 4, 5, 6, 7)

	// Provider 2 is committee 0's second provider (the evens), so its
	// collectors there are 2 and 3. On committee 1 it follows the four
	// odds: its collectors become 8 and 9.
	const mover = 2
	learned := reputations(committee(0), 2, 3)
	if learned[0][1] == 0 {
		t.Fatalf("collector 2 learned no misreport score in 6 rounds: %v", learned)
	}
	if err := cluster.Rehome(mover, 1); err != nil {
		t.Fatal(err)
	}
	if home, err := cluster.Home(mover); err != nil || home != 1 {
		t.Fatalf("Home(%d) = %d, %v after Rehome, want committee 1", mover, home, err)
	}
	dst := committee(1)
	if got := dst.Providers(); len(got) != 5 || got[4] != mover {
		t.Fatalf("committee 1 providers = %v, want the odds then %d", got, mover)
	}
	migrated := reputations(dst, 8, 9)
	for n := range learned {
		if !slices.Equal(migrated[n], learned[n]) {
			t.Fatalf("collector %d arrived with %v, had learned %v", 8+n, migrated[n], learned[n])
		}
	}

	id, err := cluster.Submit(mover, "moved", goldenPayload(true, 9, 9), true)
	if err != nil {
		t.Fatal(err)
	}
	run(4, mover)
	committedOn := func(cm *Committee) bool {
		t.Helper()
		for s := uint64(1); s <= cm.Height(); s++ {
			records, err := cm.Block(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range records {
				if r.ID == id {
					return true
				}
			}
		}
		return false
	}
	if !committedOn(dst) || committedOn(committee(0)) {
		t.Fatal("the mover's transaction did not commit on committee 1 alone")
	}
	after := reputations(dst, 8, 9)
	if after[0][1] <= migrated[0][1] && after[1][1] <= migrated[1][1] {
		t.Fatalf("misreport scores %v did not move on from the migrated %v", after, migrated)
	}
	if err := cluster.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	m := cluster.Metrics()
	if !slices.ContainsFunc(strings.Split(m, "\n"), func(line string) bool {
		return slices.Equal(strings.Fields(line), []string{"shard.rehomes_total", "1"})
	}) {
		t.Fatalf("cluster metrics lack one rehome:\n%s", m)
	}
	if len(dst.Events()) == 0 {
		t.Fatal("no events on committee 1 with WithEventLog")
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
	// engines returns every committee's engine.
	engines func() []*core.Engine
}

// headHash is the hash of governor 0's head block on e.
func headHash(t *testing.T, e *core.Engine) crypto.Hash {
	t.Helper()
	b, err := e.Governor(0).Store().Head()
	if err != nil {
		t.Fatal(err)
	}
	return b.Hash()
}

// settled reports whether every engine has drained its ingress and has
// no valid transaction left unsettled.
func settled(engines []*core.Engine) bool {
	for _, e := range engines {
		if e.MempoolDepth() > 0 {
			return false
		}
		for k := 0; k < len(e.Roster().Providers); k++ {
			if e.Provider(k).PendingValid() > 0 {
				return false
			}
		}
	}
	return true
}

func chainBatchFacade(t *testing.T) batchFacade {
	c, err := New(goldenOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return batchFacade{
		submit:  func(k int, tx Tx) (TxID, error) { return c.Submit(k, tx.Kind, tx.Payload, tx.Valid) },
		batch:   func(k int, txs []Tx) ([]TxID, error) { return c.SubmitBatch(context.Background(), k, txs) },
		round:   func() error { _, err := c.RunRound(); return err },
		engines: func() []*core.Engine { return []*core.Engine{c.engine()} },
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
		engines: func() []*core.Engine {
			var out []*core.Engine
			for i := 0; i < c.Committees(); i++ {
				out = append(out, c.cl.Engine(i))
			}
			return out
		},
	}
}

// TestSubmitBatchMatchesSubmit pins SubmitBatch to N × Submit on both
// facades: the same IDs in the same order and, round after round until
// both settle, the same chain byte for byte — each round's drain signs
// every provider's share once, however the client handed it over.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	for name, build := range map[string]func(*testing.T) batchFacade{"chain": chainBatchFacade, "cluster": clusterBatchFacade} {
		t.Run(name, func(t *testing.T) {
			one, batch := build(t), build(t)
			step := func(r int) {
				t.Helper()
				if err := one.round(); err != nil {
					t.Fatal(err)
				}
				if err := batch.round(); err != nil {
					t.Fatal(err)
				}
				a, b := one.engines(), batch.engines()
				for i := range a {
					if ha, hb := headHash(t, a[i]), headHash(t, b[i]); ha != hb {
						t.Fatalf("round %d committee %d: batch head %s, Submit head %s", r, i, hb.Short(), ha.Short())
					}
				}
			}
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
				step(r)
			}
			for r := 3; !settled(one.engines()) || !settled(batch.engines()); r++ {
				if r == 100 {
					t.Fatal("chain did not settle in 100 rounds")
				}
				step(r)
			}
		})
	}
}
