package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildBenchChain writes a height-block chain of empty-record blocks
// into dir and, when snapshot is set, records a snapshot at the head
// so reopen only has to index — not decode — the log.
func buildBenchChain(b testing.TB, dir string, height int, snapshot bool) {
	b.Helper()
	fs, err := OpenFileStoreOptions(dir, StoreOptions{SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	var prev *Block
	for i := 0; i < height; i++ {
		blk, err := NewBlock(prev, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.Append(blk); err != nil {
			b.Fatal(err)
		}
		p := blk
		prev = &p
	}
	if snapshot {
		if _, err := fs.WriteSnapshot([]byte("bench state")); err != nil {
			b.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		b.Fatal(err)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// reopenOnce opens the store in dir, checks it recovered height blocks,
// and closes it again.
func reopenOnce(tb testing.TB, dir string, height int) {
	fs, err := OpenFileStoreOptions(dir, StoreOptions{SegmentBytes: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	if fs.Height() != uint64(height) {
		tb.Fatalf("Height() = %d, want %d", fs.Height(), height)
	}
	if err := fs.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestStoreReopenAllocBudget pins the allocations of a cold open at
// height 1000: mode=replay decodes and link-verifies every frame,
// mode=snapshot only indexes (TestSnapshotSuffixOnlyReplay checks the
// replayed-block counts). Each budget is the count measured when it was
// last pinned ×1.10 + 8; re-measure with -v.
func TestStoreReopenAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		measured float64
	}{{"replay", 4042}, {"snapshot", 64}} {
		t.Run(tc.mode, func(t *testing.T) {
			if raceEnabled {
				t.Skip("sync.Pool drops items at random under -race")
			}
			dir := filepath.Join(t.TempDir(), "chain")
			buildBenchChain(t, dir, 1000, tc.mode == "snapshot")
			got := testing.AllocsPerRun(10, func() { reopenOnce(t, dir, 1000) })
			budget := tc.measured*1.10 + 8
			if got > budget {
				t.Fatalf("%v allocs per reopen, budget %v", got, budget)
			}
			t.Logf("%v allocs per reopen (budget %v)", got, budget)
		})
	}
}

// BenchmarkStoreReopen measures cold open latency of the segmented
// store with no snapshot (mode=replay) and with one at the head
// (mode=snapshot).
func BenchmarkStoreReopen(b *testing.B) {
	for _, height := range []int{1000, 100000} {
		for _, mode := range []string{"replay", "snapshot"} {
			b.Run(fmt.Sprintf("height=%d/mode=%s", height, mode), func(b *testing.B) {
				dir := filepath.Join(b.TempDir(), "chain")
				buildBenchChain(b, dir, height, mode == "snapshot")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					reopenOnce(b, dir, height)
				}
			})
		}
	}
}

// BenchmarkStoreAppend is the steady-state write path: append one
// empty-record block to a warm segmented store.
func BenchmarkStoreAppend(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "chain")
	fs, err := OpenFileStoreOptions(dir, StoreOptions{SegmentBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = fs.Close() }()
	prev, err := NewBlock(nil, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := fs.Append(prev); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := NewBlock(&prev, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.Append(blk); err != nil {
			b.Fatal(err)
		}
		prev = blk
	}
	b.StopTimer()
	if err := os.RemoveAll(dir); err != nil {
		b.Fatal(err)
	}
}
