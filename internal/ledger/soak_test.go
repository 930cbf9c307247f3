package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// TestSoakSegmentedStore drives many rounds of append + periodic
// snapshot + prune against one store and asserts the two bounds that
// make million-block chains viable: heap stays flat (the head is the
// only in-memory block) and the segment count stays pinned
// near the snapshot horizon (pruning keeps up).
//
// Defaults are sized for tier-1 CI; the nightly soak workflow scales
// it up via environment:
//
//	REPCHAIN_SOAK_ROUNDS  rounds to drive (default 2000, nightly 100000)
//	REPCHAIN_SOAK_OUT     write a JSON metrics snapshot here
func TestSoakSegmentedStore(t *testing.T) {
	rounds := 2000
	if env := os.Getenv("REPCHAIN_SOAK_ROUNDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("REPCHAIN_SOAK_ROUNDS=%q: %v", env, err)
		}
		rounds = n
	}
	const (
		snapshotEvery = 500
		segmentBytes  = 256 << 10
	)
	dir := filepath.Join(t.TempDir(), "chain")
	fs, err := OpenFileStoreOptions(dir, StoreOptions{SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs.Close() }()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc

	var prev *Block
	maxSegments, pruned := 0, 0
	var heapPeak uint64
	for i := 1; i <= rounds; i++ {
		blk, err := NewBlock(prev, testRecords(t, 2, uint64(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Append(blk); err != nil {
			t.Fatalf("Append(%d) error = %v", i, err)
		}
		p := blk
		prev = &p
		if i%snapshotEvery == 0 {
			if _, err := fs.WriteSnapshot([]byte(fmt.Sprintf("state-%d", i))); err != nil {
				t.Fatalf("WriteSnapshot at %d: %v", i, err)
			}
			n, err := fs.Prune()
			if err != nil {
				t.Fatalf("Prune at %d: %v", i, err)
			}
			pruned += n
			if s := len(fs.segments); s > maxSegments {
				maxSegments = s
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > heapPeak {
				heapPeak = ms.HeapAlloc
			}
		}
	}
	if fs.Height() != uint64(rounds) {
		t.Fatalf("Height() = %d, want %d", fs.Height(), rounds)
	}

	// Bounded RSS: the per-block cost must not accumulate. Allow a
	// fixed envelope (head block + offset indexes + test noise) that
	// does not scale with the round count.
	const heapEnvelope = 64 << 20
	if heapPeak > baseHeap+heapEnvelope {
		t.Fatalf("heap grew from %d to %d over %d rounds — block state is accumulating", baseHeap, heapPeak, rounds)
	}
	// Bounded disk: pruning must keep the live segment set near one
	// snapshot interval's worth of blocks, regardless of chain height.
	blockBytes := int64(len(prev.EncodeBytes())) + frameHeadSize
	segBound := int(2*int64(snapshotEvery)*blockBytes/segmentBytes) + 3
	if maxSegments > segBound {
		t.Fatalf("segment count peaked at %d (bound %d) — pruning is not keeping up", maxSegments, segBound)
	}
	if rounds > snapshotEvery && pruned == 0 {
		t.Fatal("no segments pruned over the whole soak")
	}

	// Recovery still works at the end of the soak.
	if err := VerifyChain(fs); err != nil {
		t.Fatalf("VerifyChain() error = %v", err)
	}

	if out := os.Getenv("REPCHAIN_SOAK_OUT"); out != "" {
		report := map[string]any{
			"rounds":          rounds,
			"height":          fs.Height(),
			"first_available": fs.FirstAvailable(),
			"segments_peak":   maxSegments,
			"segments_final":  len(fs.segments),
			"segments_pruned": pruned,
			"heap_base":       baseHeap,
			"heap_peak":       heapPeak,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
