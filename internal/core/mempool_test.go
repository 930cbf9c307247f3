package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/tx"
)

// mempoolConfig bounds the mempools with a block limit small enough
// that multi-round carryover actually happens in the traces.
func mempoolConfig() Config {
	cfg := defaultConfig()
	cfg.MempoolCap = 64
	cfg.BlockLimit = 8
	return cfg
}

// runMempoolTrace mirrors runTrace with bounded mempools: submissions
// are staged, drained in arrival order, and capped at BlockLimit per
// round, so every round after the first screens a mix of fresh and
// carried-over transactions.
func runMempoolTrace(t *testing.T, seed int64, procs, rounds int) roundTrace {
	t.Helper()
	cfg := mempoolConfig()
	cfg.Seed = seed
	setProcs(t, procs)
	cfg.Stakes = []uint64{3, 2, 1}
	e := newTestEngine(t, cfg)
	var tr roundTrace
	for r := 0; r < rounds; r++ {
		submitRound(t, e, 12, r, 3)
		// Provider 1's cap of 64 fills by round 3: the later
		// batches exercise the admitted-prefix path at either
		// GOMAXPROCS.
		if _, err := e.SubmitBatch(context.Background(), 1, batchFor(r, 24)); err != nil && !errors.Is(err, ErrBacklog) {
			t.Fatal(err)
		}
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("seed %d GOMAXPROCS %d round %d: %v", seed, procs, r, err)
		}
		tr.hashes = append(tr.hashes, res.Hash)
		tr.leaders = append(tr.leaders, res.Leader)
	}
	tr.stakes = e.Stakes()
	for j := 0; j < e.Governors(); j++ {
		tr.snapshots = append(tr.snapshots, e.Governor(j).Table().Snapshot())
	}
	return tr
}

// TestMempoolParallelDeterminism extends the determinism gate to the
// bounded, block-limited configuration: drain order is a pure function
// of the submission sequence, so traces stay byte-identical at any
// GOMAXPROCS even while the mempool carries backlog across rounds.
func TestMempoolParallelDeterminism(t *testing.T) {
	const rounds = 5
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := runMempoolTrace(t, seed, 1, rounds)
			got := runMempoolTrace(t, seed, 4, rounds)
			for r := range want.hashes {
				if got.hashes[r] != want.hashes[r] {
					t.Fatalf("GOMAXPROCS=4 round %d block hash %s, sequential %s",
						r, got.hashes[r].Short(), want.hashes[r].Short())
				}
				if got.leaders[r] != want.leaders[r] {
					t.Fatalf("GOMAXPROCS=4 round %d leader %d, sequential %d",
						r, got.leaders[r], want.leaders[r])
				}
			}
			for j := range want.snapshots {
				if !bytes.Equal(got.snapshots[j], want.snapshots[j]) {
					t.Fatalf("GOMAXPROCS=4 governor %d reputation snapshot diverged", j)
				}
			}
		})
	}
}

// TestMempoolBackpressure pins the ErrBacklog contract: a provider at
// its cap is rejected before it signs anything, a round drains it,
// and the retried submission then succeeds — with no gap or reuse in
// the provider's sequence numbers.
func TestMempoolBackpressure(t *testing.T) {
	cfg := mempoolConfig()
	cfg.MempoolCap = 2
	e := newTestEngine(t, cfg)
	providers := e.Roster().Topology.Providers()
	// Provider 0 fills its cap.
	var lastSeq uint64
	for i := 0; i < 2; i++ {
		staged, err := e.SubmitTx(0, "test/tx", payloadFor(true, i), true)
		if err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
		lastSeq = staged.Seq
	}
	_, err := e.SubmitTx(0, "test/tx", payloadFor(true, 99), true)
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("submit over the cap error = %v, want ErrBacklog", err)
	}
	// Other providers are unaffected.
	if providers > 1 {
		if _, err := e.SubmitTx(1, "test/tx", payloadFor(true, 3), true); err != nil {
			t.Fatalf("other provider's submit: %v", err)
		}
	}
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	if e.MempoolDepth() != 0 {
		t.Fatalf("MempoolDepth() = %d after drain, want 0", e.MempoolDepth())
	}
	staged, err := e.SubmitTx(0, "test/tx", payloadFor(true, 100), true)
	if err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	// The rejected submission must not have consumed a sequence number:
	// a leak here would fork provider state across retry paths.
	if staged.Seq != lastSeq+1 {
		t.Fatalf("provider seq %d after rejected submit, want %d (no gap)", staged.Seq, lastSeq+1)
	}
}

// TestSubmitBatchMatchesSubmitTx pins the batch path to N single
// submissions: the same transactions (IDs, sequence numbers) and, after
// a round, the same block byte for byte — the drain signs each
// provider's share once however it was submitted — whose records each
// verify under their provider batch.
func TestSubmitBatchMatchesSubmitTx(t *testing.T) {
	one, batch := newTestEngine(t, defaultConfig()), newTestEngine(t, defaultConfig())
	for r := 0; r < 2; r++ {
		for k := 0; k < 4; k++ {
			items := batchFor(r*4+k, 20)
			got, err := batch.SubmitBatch(context.Background(), k, items)
			if err != nil || len(got) != len(items) {
				t.Fatalf("SubmitBatch admitted %d of %d: %v", len(got), len(items), err)
			}
			for i, it := range items {
				want, err := one.SubmitTx(k, it.Kind, it.Payload, it.Valid)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want.ID() { // the ID covers the sequence number
					t.Fatalf("round %d provider %d item %d differs from SubmitTx", r, k, i)
				}
			}
		}
		a, err := one.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		b, err := batch.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash || b.Records == 0 {
			t.Fatalf("round %d: batch block %s (%d records), per-tx %s", r, b.Hash.Short(), b.Records, a.Hash.Short())
		}
		for i, rec := range committedBlock(t, batch, b).Records {
			k := slices.IndexFunc(batch.Roster().Providers, func(m identity.Member) bool { return m.ID == rec.Signed.Tx.Provider })
			if err := rec.Signed.VerifyProvider(batch.Roster().Providers[k].PublicKey); err != nil {
				t.Fatalf("round %d record %d: %v", r, i, err)
			}
		}
	}
}

// TestSubmitBatchAdmitsPrefix pins SubmitBatch's backpressure
// contract: exactly the prefix the cap has room for is signed and
// staged; the refused suffix consumes no sequence number and leaves no
// pending entry; a cancelled context admits nothing.
func TestSubmitBatchAdmitsPrefix(t *testing.T) {
	cfg := mempoolConfig()
	cfg.MempoolCap = 5
	cfg.BlockLimit = 0
	e := newTestEngine(t, cfg)
	items := batchFor(0, 12)
	for i := range items {
		items[i].Valid, items[i].Payload[0] = true, 1
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := e.SubmitBatch(ctx, 0, items); !errors.Is(err, context.Canceled) || len(got) != 0 {
		t.Fatalf("cancelled SubmitBatch admitted %d, err %v", len(got), err)
	}
	if e.MempoolDepth() != 0 || e.Provider(0).PendingValid() != 0 {
		t.Fatal("cancelled batch left state behind")
	}

	got, ids, err := e.stage(context.Background(), 0, items)
	if !errors.Is(err, ErrBacklog) || len(got) != 5 || len(ids) != 5 {
		t.Fatalf("SubmitBatch admitted %d, err %v; want the 5-tx prefix and ErrBacklog", len(got), err)
	}
	for i, s := range got {
		if s.Seq != uint64(i+1) || !bytes.Equal(s.Payload, items[i].Payload) || ids[i] != s.ID() {
			t.Fatalf("admitted item %d has seq %d", i, s.Seq)
		}
	}
	if e.MempoolDepth() != 5 || e.Provider(0).PendingValid() != 5 {
		t.Fatalf("depth %d pending %d after a 5-tx prefix", e.MempoolDepth(), e.Provider(0).PendingValid())
	}
	// A full provider admits nothing, still without touching its state.
	if got, err := e.SubmitBatch(context.Background(), 0, items[5:]); !errors.Is(err, ErrBacklog) || len(got) != 0 {
		t.Fatalf("full provider admitted %d, err %v", len(got), err)
	}
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	rest, _, err := e.stage(context.Background(), 0, items[5:10])
	if err != nil || len(rest) != 5 || rest[0].Seq != 6 {
		t.Fatalf("resumed batch: %d admitted, first seq %d, err %v; want 5 from seq 6", len(rest), rest[0].Seq, err)
	}
}

// TestMempoolCarryover checks that a drain capped at BlockLimit leaves
// the tail queued and that later rounds commit it.
func TestMempoolCarryover(t *testing.T) {
	cfg := mempoolConfig()
	cfg.BlockLimit = 4
	e := newTestEngine(t, cfg)
	submitRound(t, e, 10, 0, 0)
	if e.MempoolDepth() != 10 {
		t.Fatalf("MempoolDepth() = %d, want 10", e.MempoolDepth())
	}
	res, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Records; n != 4 {
		t.Fatalf("round 1 committed %d records, want BlockLimit=4", n)
	}
	if e.MempoolDepth() != 6 {
		t.Fatalf("MempoolDepth() = %d after capped drain, want 6", e.MempoolDepth())
	}
	committed := 4
	for r := 0; r < 3 && e.MempoolDepth() > 0; r++ {
		res, err := e.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		committed += res.Records
	}
	if committed != 10 {
		t.Fatalf("committed %d of 10 submissions across rounds", committed)
	}
}

// TestEngineClosed pins ErrClosed on both the submit and round paths.
func TestEngineClosed(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close() = %v, want idempotent nil", err)
	}
	if _, err := e.SubmitTx(0, "test/tx", payloadFor(true, 0), true); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitTx after Close = %v, want ErrClosed", err)
	}
	if _, err := e.RunRound(); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunRound after Close = %v, want ErrClosed", err)
	}
}

// TestRunRoundCtxCancel checks the documented safe-abort contract. A
// pre-cancelled context stops the round before any state changes; one
// cancelled while the collectors label (the validator's first call)
// stops it at the last safe point, once the uploads have landed. Either
// way the next, uncancelled round commits every staged transaction
// exactly once, on one head at every governor.
func TestRunRoundCtxCancel(t *testing.T) {
	for _, tt := range []struct {
		name string
		// round is the cancelled round's counter.
		round uint64
		early bool
	}{
		{"before the drain", 0, true},
		{"after the uploads", 1, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			cfg := defaultConfig()
			cfg.Validator = tx.ValidatorFunc(func(t tx.Transaction) bool {
				once.Do(cancel)
				return oracleValidator.Validate(t)
			})
			e := newTestEngine(t, cfg)
			ids := submitRound(t, e, 8, 0, 0)
			if tt.early {
				cancel()
			}
			if _, err := e.RunRoundCtx(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled RunRoundCtx = %v, want context.Canceled", err)
			}
			if e.Round() != tt.round {
				t.Fatalf("round counter at %d after the cancelled round, want %d", e.Round(), tt.round)
			}
			res, err := e.RunRoundCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[crypto.Hash]int)
			for _, rec := range committedBlock(t, e, res).Records {
				if _, ok := ids[rec.Signed.ID()]; !ok {
					t.Fatalf("committed %s, which was never submitted", rec.Signed.ID().Short())
				}
				seen[rec.Signed.ID()]++
			}
			if len(seen) != len(ids) || res.Records != len(ids) {
				t.Fatalf("post-cancel round committed %d records of %d transactions, want each of %d once", res.Records, len(seen), len(ids))
			}
			for j := 0; j < e.Governors(); j++ {
				if s := e.Governor(j).Store(); s.Height() != 1 || s.HeadHash() != res.Hash {
					t.Fatalf("governor %d at height %d, head %s; want height 1, head %s", j, s.Height(), s.HeadHash().Short(), res.Hash.Short())
				}
			}
		})
	}
}

// TestNewMempoolValidation covers the new config fields' validation.
func TestNewMempoolValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative shard cap", func(c *Config) { c.MempoolCap = -8 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := defaultConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("New() error = %v, want ErrBadConfig", err)
			}
		})
	}
}
