package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/node"
)

// roundTrace captures everything observable about one run that could
// diverge under a schedule-dependent bug: per-round block hashes and
// leaders, the final stake vector, and every governor's full reputation
// snapshot.
type roundTrace struct {
	hashes    []crypto.Hash
	leaders   []int
	stakes    []uint64
	snapshots [][]byte
}

// batchFor builds a round's n-transaction batch, every third invalid.
func batchFor(round, n int) []node.Submission {
	items := make([]node.Submission, n)
	for i := range items {
		valid := i%3 != 2
		items[i] = node.Submission{Kind: "test/batch", Payload: payloadFor(valid, round*1000+500+i), Valid: valid}
	}
	return items
}

// runTrace executes `rounds` rounds with mixed valid/invalid traffic
// and one stake transfer, under the given seed and worker count.
func runTrace(t *testing.T, seed int64, workers, rounds int) roundTrace {
	t.Helper()
	cfg := defaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Stakes = []uint64{3, 2, 1}
	// Event log on: the determinism gate must hold with the ring
	// recording, proving instrumentation is purely observational.
	cfg.EventCapacity = 4096
	e := newTestEngine(t, cfg)
	var tr roundTrace
	for r := 0; r < rounds; r++ {
		submitRound(t, e, 12, r, 3)
		// A batch big enough that SignBatch and the collectors'
		// VerifyBatch residuals fan out across goroutines.
		if _, err := e.SubmitBatch(context.Background(), r%4, batchFor(r, 24)); err != nil {
			t.Fatal(err)
		}
		if r == 1 {
			if err := e.SubmitStakeTransfer(0, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("seed %d workers %d round %d: %v", seed, workers, r, err)
		}
		tr.hashes = append(tr.hashes, res.Block.Hash())
		tr.leaders = append(tr.leaders, res.Leader)
	}
	tr.stakes = e.StakeLedger().Snapshot()
	for j := 0; j < e.Governors(); j++ {
		tr.snapshots = append(tr.snapshots, e.Governor(j).Table().Snapshot())
	}
	return tr
}

// TestParallelMatchesSequential is the tentpole's determinism gate: the
// pipeline must be byte-identical at every worker count. Block hashes
// transitively commit to screening decisions and records; leaders to
// the VRF election; reputation snapshots to every weight update.
func TestParallelMatchesSequential(t *testing.T) {
	const rounds = 5
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := runTrace(t, seed, 1, rounds)
			for _, workers := range []int{4, 8} {
				got := runTrace(t, seed, workers, rounds)
				for r := range want.hashes {
					if got.hashes[r] != want.hashes[r] {
						t.Fatalf("workers=%d round %d block hash %s, sequential %s",
							workers, r, got.hashes[r].Short(), want.hashes[r].Short())
					}
					if got.leaders[r] != want.leaders[r] {
						t.Fatalf("workers=%d round %d leader %d, sequential %d",
							workers, r, got.leaders[r], want.leaders[r])
					}
				}
				for j := range want.stakes {
					if got.stakes[j] != want.stakes[j] {
						t.Fatalf("workers=%d stakes %v, sequential %v", workers, got.stakes, want.stakes)
					}
				}
				for j := range want.snapshots {
					if !bytes.Equal(got.snapshots[j], want.snapshots[j]) {
						t.Fatalf("workers=%d governor %d reputation snapshot diverged from sequential", workers, j)
					}
				}
			}
		})
	}
}

// TestStakeNoncesSurviveRounds pins the nonce-reuse fix: identical
// transfers issued in different rounds must sign distinct bytes.
func TestStakeNoncesSurviveRounds(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{6, 1, 1}
	e := newTestEngine(t, cfg)
	var nonces []uint64
	var sigs [][]byte
	for r := 0; r < 3; r++ {
		if err := e.SubmitStakeTransfer(0, 1, 1); err != nil {
			t.Fatal(err)
		}
		stx := e.pendingStakeTxs[len(e.pendingStakeTxs)-1]
		nonces = append(nonces, stx.Nonce)
		sigs = append(sigs, stx.Sig)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(nonces); i++ {
		if nonces[i] == nonces[0] {
			t.Fatalf("nonce %d of round %d repeats round 0's: replayable transfer", nonces[i], i)
		}
		if bytes.Equal(sigs[i], sigs[0]) {
			t.Fatalf("round %d transfer signs the same bytes as round 0", i)
		}
	}
}

func TestWorkersAccessorAndResolve(t *testing.T) {
	cfg := defaultConfig()
	cfg.Workers = 3
	e := newTestEngine(t, cfg)
	if e.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", e.Workers())
	}
	if resolveWorkers(0) < 1 || resolveWorkers(-5) < 1 {
		t.Fatal("resolveWorkers must return at least one worker")
	}
	if resolveWorkers(7) != 7 {
		t.Fatal("resolveWorkers must pass positive values through")
	}
}
