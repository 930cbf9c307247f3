package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// validator accepts transactions whose first payload byte is 1.
type validator struct{}

func (validator) Validate(t tx.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
}

// baseConfig is the shared 8-provider, s=1 global topology: every
// committee slice keeps collector degree 1 so re-homes are legal.
func baseConfig(seed int64) core.Config {
	return core.Config{
		Spec:          identity.TopologySpec{Providers: 8, Collectors: 16, Degree: 2},
		Governors:     3,
		Params:        reputation.DefaultParams(),
		BlockLimit:    32,
		ArgueWindow:   4,
		Seed:          seed,
		Validator:     validator{},
		EventCapacity: 1 << 16,
	}
}

func payload(valid bool, a, b byte) []byte {
	p := []byte{0, a, b}
	if valid {
		p[0] = 1
	}
	return p
}

// chainHashes returns every committed block hash of committee i as
// seen by governor 0, in serial order.
func chainHashes(t *testing.T, cl *Cluster, i int) []crypto.Hash {
	t.Helper()
	st := cl.Engine(i).Governor(0).Store()
	out := make([]crypto.Hash, 0, st.Height())
	for s := uint64(1); s <= st.Height(); s++ {
		b, err := st.Get(s)
		if err != nil {
			t.Fatalf("committee %d block %d: %v", i, s, err)
		}
		out = append(out, b.Hash())
	}
	return out
}

func TestClusterK1MatchesBareEngine(t *testing.T) {
	submit := func(sub func(k int, kind string, payload []byte, valid bool) error, round int) {
		for j := 0; j < 12; j++ {
			valid := j%3 != 2
			if err := sub(j%8, "k1", payload(valid, byte(j), byte(round)), valid); err != nil {
				t.Fatal(err)
			}
		}
	}

	eng, err := core.New(baseConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var bare []crypto.Hash
	for r := 0; r < 5; r++ {
		submit(func(k int, kind string, p []byte, valid bool) error {
			_, err := eng.SubmitTx(k, kind, p, valid)
			return err
		}, r)
		res, err := eng.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		bare = append(bare, res.Hash)
	}

	cl, err := New(Config{Base: baseConfig(42), Committees: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for r := 0; r < 5; r++ {
		submit(func(k int, kind string, p []byte, valid bool) error {
			_, _, err := cl.SubmitTx(k, kind, p, valid)
			return err
		}, r)
		if _, err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	sharded := chainHashes(t, cl, 0)
	if len(sharded) != len(bare) {
		t.Fatalf("cluster committed %d blocks, bare engine %d", len(sharded), len(bare))
	}
	for s := range bare {
		if bare[s] != sharded[s] {
			t.Fatalf("block %d: bare %x, K=1 cluster %x", s+1, bare[s], sharded[s])
		}
	}
}

// runCrossScenario drives a K=2 cluster through a deterministic mix of
// local and cross-shard submissions and returns the per-committee
// chain hashes plus the set of lock IDs issued, at GOMAXPROCS procs.
func runCrossScenario(t *testing.T, seed int64, procs int) ([][]crypto.Hash, map[crypto.Hash]bool) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	cl, err := New(Config{Base: baseConfig(seed), Committees: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	locks := make(map[crypto.Hash]bool)
	for r := 0; r < 10; r++ {
		for j := 0; j < 8; j++ {
			valid := j%4 != 3
			if _, _, err := cl.SubmitTx(j, "local", payload(valid, byte(j), byte(r)), valid); err != nil {
				t.Fatal(err)
			}
		}
		// One multi-transaction provider batch, its home committee
		// alternating with the round.
		batch := make([]node.Submission, 20)
		for i := range batch {
			batch[i] = node.Submission{Kind: "local", Payload: payload(i%4 != 3, byte(100+i), byte(r)), Valid: i%4 != 3}
		}
		if _, staged, err := cl.SubmitBatch(context.Background(), r%2+2, batch); err != nil || len(staged) != len(batch) {
			t.Fatalf("SubmitBatch admitted %d of %d: %v", len(staged), len(batch), err)
		}
		if r < 6 {
			// Providers 0 and 1 live on different committees under the
			// modulo partition; 3 and 6 likewise.
			lock, err := cl.SubmitCross(0, 1, "wire", payload(true, byte(r), 1), true)
			if err != nil {
				t.Fatal(err)
			}
			locks[lock] = true
			lock, err = cl.SubmitCross(3, 6, "wire", payload(true, byte(r), 2), true)
			if err != nil {
				t.Fatal(err)
			}
			locks[lock] = true
		}
		if _, err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.PendingReceipts(); got != 0 {
		t.Fatalf("%d receipts still pending after drain rounds", got)
	}
	if v := cl.Metrics().Snapshot().Counters["shard.cross_tx_total"]; v != 12 {
		t.Fatalf("shard.cross_tx_total = %d, want 12", v)
	}
	return [][]crypto.Hash{chainHashes(t, cl, 0), chainHashes(t, cl, 1)}, locks
}

func TestCrossShardReceiptDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base, _ := runCrossScenario(t, seed, 1)
			other, _ := runCrossScenario(t, seed, 4)
			for i := range base {
				if len(base[i]) != len(other[i]) {
					t.Fatalf("committee %d: %d blocks at GOMAXPROCS=1, %d at GOMAXPROCS=4", i, len(base[i]), len(other[i]))
				}
				for s := range base[i] {
					if base[i][s] != other[i][s] {
						t.Fatalf("committee %d block %d differs between GOMAXPROCS=1 and GOMAXPROCS=4", i, s+1)
					}
				}
			}
		})
	}
}

// receiptLockIDs collects the lock IDs of every receipt record
// committed on committee i.
func receiptLockIDs(t *testing.T, cl *Cluster, i int) map[crypto.Hash]int {
	t.Helper()
	st := cl.Engine(i).Governor(0).Store()
	out := make(map[crypto.Hash]int)
	for s := uint64(1); s <= st.Height(); s++ {
		b, err := st.Get(s)
		if err != nil {
			t.Fatalf("committee %d block %d: %v", i, s, err)
		}
		for _, rec := range b.Records {
			if rec.Signed.Tx.Kind != KindReceipt {
				continue
			}
			env, err := decodeReceipt(rec.Signed.Tx.Payload)
			if err != nil {
				t.Fatalf("committed receipt failed to decode: %v", err)
			}
			out[env.LockID]++
		}
	}
	return out
}

func TestK4CrossShardCommitsWithoutForks(t *testing.T) {
	cl, err := New(Config{Base: baseConfig(42), Committees: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	locks := make(map[crypto.Hash]int) // lock ID -> destination committee
	for r := 0; r < 12; r++ {
		for j := 0; j < 8; j++ {
			if _, _, err := cl.SubmitTx(j, "local", payload(true, byte(j), byte(r)), true); err != nil {
				t.Fatal(err)
			}
		}
		if r < 6 {
			// One cross-shard transfer out of every committee per
			// round: provider j -> provider (j+1)%8 hops committees
			// under the modulo partition.
			for j := 0; j < 4; j++ {
				lock, err := cl.SubmitCross(j, (j+1)%8, "wire", payload(true, byte(j), byte(r)), true)
				if err != nil {
					t.Fatal(err)
				}
				slot, err := cl.Home((j + 1) % 8)
				if err != nil {
					t.Fatal(err)
				}
				locks[lock] = slot.Committee
			}
		}
		if _, err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.PendingReceipts(); got != 0 {
		t.Fatalf("%d receipts still pending", got)
	}

	for i := 0; i < 4; i++ {
		eng := cl.Engine(i)
		// Every replica verifiable, and no fork: all governors agree
		// on every serial.
		heights := make([]uint64, eng.Governors())
		for j := 0; j < eng.Governors(); j++ {
			if err := ledger.VerifyChain(eng.Governor(j).Store()); err != nil {
				t.Fatalf("committee %d governor %d: %v", i, j, err)
			}
			heights[j] = eng.Governor(j).Store().Height()
		}
		for j := 1; j < eng.Governors(); j++ {
			if heights[j] != heights[0] {
				t.Fatalf("committee %d: governor %d at height %d, governor 0 at %d", i, j, heights[j], heights[0])
			}
			for s := uint64(1); s <= heights[0]; s++ {
				b0, err := eng.Governor(0).Store().Get(s)
				if err != nil {
					t.Fatal(err)
				}
				bj, err := eng.Governor(j).Store().Get(s)
				if err != nil {
					t.Fatal(err)
				}
				if b0.Hash() != bj.Hash() {
					t.Fatalf("committee %d serial %d: governors 0 and %d diverge", i, s, j)
				}
			}
		}
	}

	// Every lock produced exactly one receipt on its destination.
	delivered := make(map[crypto.Hash]int)
	for i := 0; i < 4; i++ {
		for id, n := range receiptLockIDs(t, cl, i) {
			delivered[id] += n
		}
	}
	for id, dst := range locks {
		if delivered[id] != 1 {
			t.Fatalf("lock %x for committee %d delivered %d times, want 1", id, dst, delivered[id])
		}
	}
	if len(delivered) != len(locks) {
		t.Fatalf("%d receipts delivered for %d locks", len(delivered), len(locks))
	}
}

func TestClusterConfigValidation(t *testing.T) {
	t.Run("indivisible committee slice", func(t *testing.T) {
		cfg := baseConfig(1)
		// 10 providers, degree 3 over 15 collectors: s=2; a 4/6 split
		// under modulo-2 gives 5 providers x 3 links = 15, not
		// divisible by s=2.
		cfg.Spec = identity.TopologySpec{Providers: 10, Collectors: 15, Degree: 3}
		if _, err := New(Config{Base: cfg, Committees: 2}); !errors.Is(err, core.ErrBadConfig) {
			t.Fatalf("err = %v, want core.ErrBadConfig", err)
		}
	})
	t.Run("links unsupported", func(t *testing.T) {
		cfg := baseConfig(1)
		cfg.Links = [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
		cfg.Spec.Degree = 1
		cfg.Spec.Collectors = 8
		if _, err := New(Config{Base: cfg, Committees: 2}); !errors.Is(err, core.ErrBadConfig) {
			t.Fatalf("err = %v, want core.ErrBadConfig", err)
		}
	})
	t.Run("negative committees", func(t *testing.T) {
		if _, err := New(Config{Base: baseConfig(1), Committees: -1}); !errors.Is(err, core.ErrBadConfig) {
			t.Fatalf("err = %v, want core.ErrBadConfig", err)
		}
	})
	t.Run("routing", func(t *testing.T) {
		cl, err := New(Config{Base: baseConfig(1), Committees: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for j := 0; j < 8; j++ {
			slot, err := cl.Home(j)
			if err != nil {
				t.Fatal(err)
			}
			if slot.Committee != j%4 {
				t.Fatalf("provider %d on committee %d, want %d", j, slot.Committee, j%4)
			}
		}
		if _, err := cl.Home(8); !errors.Is(err, core.ErrUnknownProvider) {
			t.Fatalf("err = %v, want core.ErrUnknownProvider", err)
		}
	})
}

// TestNewClosesBuiltCommitteesOnError: when committee 1 cannot be
// rebuilt — its checkpoint is corrupt — New fails and leaves committee
// 0's chain stores closed.
func TestNewClosesBuiltCommitteesOnError(t *testing.T) {
	cfg := Config{Base: baseConfig(1), Committees: 2}
	cfg.Base.ChainDir = t.TempDir()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One block gives every governor an open chain segment.
	if _, err := cl.RunRound(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := ledger.OpenFileStore(filepath.Join(cfg.Base.ChainDir, "committee-1", "governor-0.chain"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteSnapshot([]byte("not a governor state")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New() accepted a corrupted checkpoint")
	}
	after, _ := os.ReadDir("/proc/self/fd")
	if len(after) != len(fds) {
		t.Fatalf("%d open files after the failed New, %d before: committee 0's chain stores were left open", len(after), len(fds))
	}
}
