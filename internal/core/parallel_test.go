package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/par"
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

// Trace shapes. The mixed shape submits a round one transaction at a
// time over the providers plus one 24-transaction batch; the one-by-one
// shape submits 36 transactions one at a time under a block limit of
// 20, so every drain signs several providers' shares concurrently and
// the limit splits one of them. Both drain fewer than fanOutFloor
// transactions, so their rounds step every node inline; the wide shape
// submits fanOutFloor+12 one at a time, so at GOMAXPROCS 4 its rounds
// fan out.
const (
	shapeMixed    = "mixed"
	shapeOneByOne = "one-by-one"
	shapeWide     = "wide"
)

// runTrace executes `rounds` rounds of the given shape with mixed
// valid/invalid traffic and one stake transfer, under the given seed
// and GOMAXPROCS, and fails unless the rounds fan out exactly when
// they should.
func runTrace(t *testing.T, seed int64, procs, rounds int, shape string) roundTrace {
	t.Helper()
	cfg := defaultConfig()
	cfg.Seed = seed
	if shape == shapeOneByOne {
		cfg.BlockLimit = 20
	}
	setProcs(t, procs)
	cfg.Stakes = []uint64{3, 2, 1}
	// Event log on: the determinism gate must hold with the ring
	// recording, proving instrumentation is purely observational.
	cfg.EventCapacity = 4096
	e := newTestEngine(t, cfg)
	var tr roundTrace
	for r := 0; r < rounds; r++ {
		switch shape {
		case shapeOneByOne:
			submitRound(t, e, 36, r, 3)
		case shapeWide:
			submitRound(t, e, fanOutFloor+12, r, 3)
		default:
			submitRound(t, e, 12, r, 3)
			// A batch big enough that the collectors' VerifyBatch
			// residuals fan out across goroutines.
			if _, err := e.SubmitBatch(context.Background(), r%4, batchFor(r, 24)); err != nil {
				t.Fatal(err)
			}
		}
		if r == 1 {
			if err := e.SubmitStakeTransfer(0, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("seed %d GOMAXPROCS %d round %d: %v", seed, procs, r, err)
		}
		checkFanOut(t, e, procs, shape == shapeWide)
		tr.hashes = append(tr.hashes, res.Block.Hash())
		tr.leaders = append(tr.leaders, res.Leader)
	}
	tr.stakes = e.Stakes()
	for j := 0; j < e.Governors(); j++ {
		tr.snapshots = append(tr.snapshots, e.Governor(j).Table().Snapshot())
	}
	return tr
}

// checkFanOut fails unless the round just run stepped its nodes on
// `procs` goroutines when wide, and inline otherwise.
func checkFanOut(t *testing.T, e *Engine, procs int, wide bool) {
	t.Helper()
	want := 1
	if wide {
		want = procs
	}
	if got := e.workers(); got != want {
		t.Fatalf("round drained %d tx at GOMAXPROCS %d and fanned out over %d workers, want %d", e.drained, procs, got, want)
	}
}

// TestParallelMatchesSequential is the tentpole's determinism gate: the
// pipeline must be byte-identical at GOMAXPROCS 1 and 4. Block hashes
// transitively commit to screening decisions and records; leaders to
// the VRF election; reputation snapshots to every weight update. The
// wide shape is the one whose node steps run concurrently.
func TestParallelMatchesSequential(t *testing.T) {
	const rounds = 5
	for _, tc := range []struct {
		seed  int64
		shape string
	}{{1, shapeMixed}, {7, shapeMixed}, {42, shapeMixed}, {1, shapeOneByOne}, {42, shapeOneByOne}, {1, shapeWide}, {42, shapeWide}} {
		seed := tc.seed
		name := fmt.Sprintf("seed=%d", seed)
		if tc.shape != shapeMixed {
			name += "/" + tc.shape
		}
		t.Run(name, func(t *testing.T) {
			want := runTrace(t, seed, 1, rounds, tc.shape)
			got := runTrace(t, seed, 4, rounds, tc.shape)
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
			for j := range want.stakes {
				if got.stakes[j] != want.stakes[j] {
					t.Fatalf("GOMAXPROCS=4 stakes %v, sequential %v", got.stakes, want.stakes)
				}
			}
			for j := range want.snapshots {
				if !bytes.Equal(got.snapshots[j], want.snapshots[j]) {
					t.Fatalf("GOMAXPROCS=4 governor %d reputation snapshot diverged from sequential", j)
				}
			}
		})
	}
}

// TestFanOutWorkers pins the fan-out rule: a round whose drain took
// fewer than fanOutFloor transactions steps every node on the engine
// goroutine, and from the floor up it uses par.Procs — whatever was
// submitted, since a block limit caps the drain.
func TestFanOutWorkers(t *testing.T) {
	setProcs(t, 4)
	for _, tc := range []struct {
		submitted, limit, want int
	}{
		{0, 0, 1},
		{fanOutFloor - 1, 0, 1},
		{fanOutFloor, 0, par.Procs(fanOutFloor, 0)},
		{3 * fanOutFloor, 0, par.Procs(3*fanOutFloor, 0)},
		{fanOutFloor + 10, fanOutFloor - 1, 1},
	} {
		cfg := defaultConfig()
		cfg.BlockLimit = tc.limit
		e := newTestEngine(t, cfg)
		submitRound(t, e, tc.submitted, 0, 3)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
		if got := e.workers(); got != tc.want {
			t.Fatalf("%d submitted under block limit %d: %d workers, want %d", tc.submitted, tc.limit, got, tc.want)
		}
	}
	if par.Procs(fanOutFloor, 0) != 4 {
		t.Fatalf("par.Procs at GOMAXPROCS 4 = %d", par.Procs(fanOutFloor, 0))
	}
}

// setProcs runs the rest of the test at GOMAXPROCS n — the one
// concurrency setting the round fan-outs read — and restores the
// previous value when the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestStakeNoncesSurviveRounds pins the nonce-reuse fix: identical
// transfers issued in different rounds must sign distinct bytes.
func TestStakeNoncesSurviveRounds(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{6, 1, 1}
	e := newTestEngine(t, cfg)
	var sent []consensus.StakeTx
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		if m.Kind == network.KindStakeTx && to == e.Roster().Governors[0].ID {
			stx, err := consensus.DecodeStakeTx(m.Payload)
			if err != nil {
				t.Error(err)
			}
			sent = append(sent, stx)
		}
		return false
	})
	var nonces []uint64
	var sigs [][]byte
	for r := 0; r < 3; r++ {
		if err := e.SubmitStakeTransfer(0, 1, 1); err != nil {
			t.Fatal(err)
		}
		stx := sent[len(sent)-1]
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
