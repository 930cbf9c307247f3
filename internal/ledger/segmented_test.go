package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallOpts forces frequent segment rolls so a handful of blocks spans
// several files.
func smallOpts() StoreOptions {
	return StoreOptions{SegmentBytes: 1024}
}

// openSmall opens dir with smallOpts and a 4-slot tail cache, so a
// handful of blocks already exercises disk reads.
func openSmall(t *testing.T, dir string) *FileStore {
	t.Helper()
	fs, err := OpenFileStoreOptions(dir, smallOpts())
	if err != nil {
		t.Fatalf("OpenFileStoreOptions() error = %v", err)
	}
	fs.mu.Lock()
	fs.tail = make([]Block, 4)
	fs.mu.Unlock()
	return fs
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "chain-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	blocks := buildChain(t, fs, 24, 2)
	if fs.Segments() < 3 {
		t.Fatalf("Segments() = %d after 24 blocks at 1 KiB roll, want ≥ 3", fs.Segments())
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2 := openSmall(t, dir)
	defer func() { _ = fs2.Close() }()
	if fs2.Height() != 24 {
		t.Fatalf("reopened Height() = %d, want 24", fs2.Height())
	}
	for _, want := range blocks {
		got, err := fs2.Get(want.Serial)
		if err != nil {
			t.Fatalf("Get(%d) error = %v", want.Serial, err)
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("block %d changed across restart", want.Serial)
		}
	}
	if err := VerifyChain(fs2); err != nil {
		t.Fatalf("VerifyChain() error = %v", err)
	}
	// Appends keep working and link to the recovered head.
	next, err := NewBlock(&blocks[len(blocks)-1], testRecords(t, 2, 500), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Append(next); err != nil {
		t.Fatalf("Append() after reopen error = %v", err)
	}
}

func TestSealedSegmentsHaveIndexes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	buildChain(t, fs, 24, 2)
	segs := fs.Segments()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := filepath.Glob(filepath.Join(dir, "chain-*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != segs-1 {
		t.Fatalf("%d sidecar indexes for %d segments, want one per sealed segment (%d)", len(idx), segs, segs-1)
	}
}

// Torn-write matrix: each variant damages the tail of the newest
// segment the way a crash mid-write can, and recovery must truncate
// the tear and keep every block before it.
func TestTornTailRecovery(t *testing.T) {
	cases := []struct {
		name string
		tear func(t *testing.T, seg string)
	}{
		{"truncated-frame", func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-7); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-crc-final-frame", func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := flipByte(seg, int(fi.Size())-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-filled-tail", func(t *testing.T, seg string) {
			// A crash after metadata allocation but before the data
			// write can leave a zero-filled extent.
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"partial-frame-header", func(t *testing.T, seg string) {
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x00, 0x00, 0x01}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "chain")
			fs := openSmall(t, dir)
			blocks := buildChain(t, fs, 9, 2)
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			segs := segFiles(t, dir)
			tc.tear(t, segs[len(segs)-1])

			fs2 := openSmall(t, dir)
			defer func() { _ = fs2.Close() }()
			h := fs2.Height()
			if h == 0 || h > 9 {
				t.Fatalf("recovered Height() = %d, want in (0, 9]", h)
			}
			if tc.name != "zero-filled-tail" && tc.name != "partial-frame-header" && h == 9 {
				t.Fatalf("tear dropped no block (height still 9)")
			}
			for s := uint64(1); s <= h; s++ {
				got, err := fs2.Get(s)
				if err != nil {
					t.Fatalf("Get(%d) error = %v", s, err)
				}
				if got.Hash() != blocks[s-1].Hash() {
					t.Fatalf("block %d changed by tail recovery", s)
				}
			}
			if err := VerifyChain(fs2); err != nil {
				t.Fatalf("VerifyChain() error = %v", err)
			}
			// The chain must accept appends at the recovered head.
			var prev *Block
			if h > 0 {
				p := blocks[h-1]
				prev = &p
			}
			next, err := NewBlock(prev, testRecords(t, 1, 900), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs2.Append(next); err != nil {
				t.Fatalf("Append() after tail recovery error = %v", err)
			}
		})
	}
}

func TestTruncatedSealedSegmentFailsOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	buildChain(t, fs, 24, 2)
	if fs.Segments() < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", fs.Segments())
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	victim := segs[0]
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	// The stale sidecar index (size mismatch) must not mask the damage.
	_, err = OpenFileStoreOptions(dir, smallOpts())
	if err == nil {
		t.Fatal("open accepted a truncated sealed segment")
	}
	if !errors.Is(err, ErrCorruptChain) {
		t.Fatalf("error = %v, want ErrCorruptChain", err)
	}
	if !strings.Contains(err.Error(), filepath.Base(victim)) {
		t.Fatalf("error %q does not name segment %s", err, filepath.Base(victim))
	}
}

func TestCorruptionErrorNamesSegmentAndOffset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	buildChain(t, fs, 24, 2)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	victim := segs[1] // a sealed mid-chain segment
	// Flip a byte in the second frame's payload so the report must
	// point past the first frame, not just at the file.
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := binary.BigEndian.Uint32(data[segHeaderSize : segHeaderSize+4])
	second := segHeaderSize + frameHeadSize + int(firstLen)
	if err := flipByte(victim, second+frameHeadSize+3); err != nil {
		t.Fatal(err)
	}
	// Drop the sidecar index so the scan actually touches the frames.
	base := strings.TrimSuffix(victim, ".seg")
	_ = os.Remove(base + ".idx")

	_, err = OpenFileStoreOptions(dir, smallOpts())
	if err == nil {
		t.Fatal("open accepted mid-segment corruption")
	}
	msg := err.Error()
	if !strings.Contains(msg, filepath.Base(victim)) {
		t.Fatalf("error %q does not name segment %s", msg, filepath.Base(victim))
	}
	if !strings.Contains(msg, fmt.Sprintf("offset %d", second)) {
		t.Fatalf("error %q does not report offset %d of the corrupt frame", msg, second)
	}
}

func TestCorruptIndexFallsBackToScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	blocks := buildChain(t, fs, 24, 2)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := filepath.Glob(filepath.Join(dir, "chain-*.idx"))
	if err != nil || len(idx) == 0 {
		t.Fatalf("no sidecar indexes (err=%v)", err)
	}
	for _, p := range idx {
		if err := flipByte(p, 12); err != nil {
			t.Fatal(err)
		}
	}
	fs2 := openSmall(t, dir)
	defer func() { _ = fs2.Close() }()
	if fs2.Height() != 24 {
		t.Fatalf("Height() = %d after index corruption, want 24 via frame scan", fs2.Height())
	}
	if fs2.Recovery().SegmentsScanned == 0 {
		t.Fatal("RecoveryInfo.SegmentsScanned = 0, want rescans after index corruption")
	}
	for _, want := range blocks {
		got, err := fs2.Get(want.Serial)
		if err != nil {
			t.Fatalf("Get(%d) error = %v", want.Serial, err)
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("block %d corrupted", want.Serial)
		}
	}
}

// reopenReplaying closes fs, opens dir again and checks that recovery
// decoded exactly replayed blocks.
func reopenReplaying(t *testing.T, fs *FileStore, dir string, replayed int) *FileStore {
	t.Helper()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs = openSmall(t, dir)
	if got := fs.Recovery().BlocksReplayed; got != replayed {
		t.Fatalf("RecoveryInfo.BlocksReplayed = %d, want %d", got, replayed)
	}
	return fs
}

func TestSnapshotSuffixOnlyReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	blocks := buildChain(t, fs, 20, 2)
	// Without a snapshot reopen replays the full height; with one at the
	// head it replays nothing.
	fs = reopenReplaying(t, fs, dir, 20)
	if _, err := fs.WriteSnapshot([]byte("app-state-at-20")); err != nil {
		t.Fatalf("WriteSnapshot() error = %v", err)
	}
	fs = reopenReplaying(t, fs, dir, 0)
	// Grow past the snapshot so there is a suffix to replay.
	prev := blocks[len(blocks)-1]
	for i := 0; i < 4; i++ {
		b, err := NewBlock(&prev, testRecords(t, 2, uint64(600+i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Append(b); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	fs2 := reopenReplaying(t, fs, dir, 4) // only the suffix
	defer func() { _ = fs2.Close() }()
	ri := fs2.Recovery()
	if ri.SnapshotHeight != 20 {
		t.Fatalf("RecoveryInfo.SnapshotHeight = %d, want 20", ri.SnapshotHeight)
	}
	if ri.BlocksIndexed != 20 {
		t.Fatalf("RecoveryInfo.BlocksIndexed = %d, want the 20 pre-snapshot blocks", ri.BlocksIndexed)
	}
	if fs2.Height() != 24 {
		t.Fatalf("Height() = %d, want 24", fs2.Height())
	}
	snap, ok := fs2.LatestSnapshot()
	if !ok || string(snap.App) != "app-state-at-20" {
		t.Fatalf("LatestSnapshot() = (%q, %v), want recovered app state", snap.App, ok)
	}
}

func TestPruneBehindSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	blocks := buildChain(t, fs, 24, 2)
	if _, err := fs.WriteSnapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	before := fs.Segments()
	removed, err := fs.Prune()
	if err != nil {
		t.Fatalf("Prune() error = %v", err)
	}
	if removed == 0 || fs.Segments() != before-removed {
		t.Fatalf("Prune() removed %d of %d segments", removed, before)
	}
	if fs.Segments() < 1 {
		t.Fatal("Prune() removed the active segment")
	}
	first := fs.FirstAvailable()
	if first <= 1 {
		t.Fatalf("FirstAvailable() = %d after pruning, want > 1", first)
	}
	// Pruned serials answer ErrPruned; surviving ones still verify.
	if _, err := fs.Get(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("Get(1) error = %v, want ErrPruned", err)
	}
	for s := first; s <= fs.Height(); s++ {
		got, err := fs.Get(s)
		if err != nil {
			t.Fatalf("Get(%d) error = %v", s, err)
		}
		if got.Hash() != blocks[s-1].Hash() {
			t.Fatalf("block %d corrupted by pruning", s)
		}
	}
	if head, err := fs.Head(); err != nil || head.Serial != 24 {
		t.Fatalf("Head() = (%v, %v) after pruning", head.Serial, err)
	}
	if err := VerifyChain(fs); err != nil {
		t.Fatalf("VerifyChain() on pruned store error = %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after pruning: the snapshot anchors the surviving suffix.
	fs2 := openSmall(t, dir)
	defer func() { _ = fs2.Close() }()
	if fs2.Height() != 24 {
		t.Fatalf("reopened pruned Height() = %d, want 24", fs2.Height())
	}
	if fs2.FirstAvailable() != first {
		t.Fatalf("reopened FirstAvailable() = %d, want %d", fs2.FirstAvailable(), first)
	}
	if err := VerifyChain(fs2); err != nil {
		t.Fatalf("VerifyChain(reopened pruned) error = %v", err)
	}
	prev := blocks[len(blocks)-1]
	next, err := NewBlock(&prev, testRecords(t, 1, 800), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Append(next); err != nil {
		t.Fatalf("Append() on pruned store error = %v", err)
	}
}

func TestPruneWithoutSnapshotIsNoop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	defer func() { _ = fs.Close() }()
	buildChain(t, fs, 24, 2)
	removed, err := fs.Prune()
	if err != nil {
		t.Fatalf("Prune() error = %v", err)
	}
	if removed != 0 {
		t.Fatalf("Prune() removed %d segments with no snapshot covering them", removed)
	}
}

// TestOpenRejectsRegularFile: a regular file at the chain path is
// outside input, rejected by name instead of failing MkdirAll obscurely.
func TestOpenRejectsRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.dat")
	if err := os.WriteFile(path, []byte("not a segment directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFileStore(path)
	if !errors.Is(err, ErrCorruptChain) {
		t.Fatalf("OpenFileStore(file) error = %v, want ErrCorruptChain", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the path", err)
	}
}

func TestSnapshotAheadOfLogFailsOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	buildChain(t, fs, 6, 2)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge a snapshot claiming a height the log never reached.
	// WriteSnapshot fsyncs the log first, so this cannot be a crash
	// artifact — open must treat it as corruption.
	if err := writeSnapshotFile(dir, Snapshot{Height: 99, App: []byte("forged")}); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFileStoreOptions(dir, smallOpts())
	if err == nil {
		t.Fatal("open accepted a snapshot ahead of the log")
	}
	if !errors.Is(err, ErrCorruptChain) {
		t.Fatalf("error = %v, want ErrCorruptChain", err)
	}
}

func TestGetBeyondTailReadsDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir) // 4-slot tail
	defer func() { _ = fs.Close() }()
	blocks := buildChain(t, fs, 24, 2)
	// Serial 1 left the 4-slot tail ring long ago; this must hit disk.
	got, err := fs.Get(1)
	if err != nil {
		t.Fatalf("Get(1) error = %v", err)
	}
	if got.Hash() != blocks[0].Hash() {
		t.Fatal("disk read returned a different block 1")
	}
}
