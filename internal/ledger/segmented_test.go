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

// openSmall opens dir with smallOpts.
func openSmall(t *testing.T, dir string) *FileStore {
	t.Helper()
	fs, err := OpenFileStoreOptions(dir, smallOpts())
	if err != nil {
		t.Fatalf("OpenFileStoreOptions() error = %v", err)
	}
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
	if len(fs.segments) < 3 {
		t.Fatalf("%d segments after 24 blocks at 1 KiB roll, want ≥ 3", len(fs.segments))
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// An offset index file older stores wrote beside a sealed segment
	// is deleted at open.
	if err := os.WriteFile(filepath.Join(dir, "chain-00000000000000000001.idx"), []byte("RPIX0001"), 0o644); err != nil {
		t.Fatal(err)
	}

	fs2 := openSmall(t, dir)
	defer func() { _ = fs2.Close() }()
	// The segments are the only index: no other file kind sits beside them.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" && filepath.Ext(e.Name()) != ".snap" {
			t.Fatalf("chain directory holds %s, want only .seg and .snap files", e.Name())
		}
	}
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

// Torn-write matrix: each variant damages the newest segment of a
// 9-block chain the way a crash mid-write can — its tail, or its whole
// creation — and recovery must drop the tear, keep every block before
// it, and take appends that survive another reopen.
func TestTornTailRecovery(t *testing.T) {
	// created writes data as a tenth-block segment whose header never
	// fully reached disk.
	created := func(data []byte) func(*testing.T, string) {
		return func(t *testing.T, seg string) {
			if err := os.WriteFile(filepath.Join(filepath.Dir(seg), segmentName(10)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		height uint64 // recovered
		tear   func(t *testing.T, seg string)
	}{
		{"truncated-frame", 8, func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-7); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-crc-final-frame", 8, func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := flipByte(seg, int(fi.Size())-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-filled-tail", 9, func(t *testing.T, seg string) {
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
		{"partial-frame-header", 9, func(t *testing.T, seg string) {
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
		{"torn-creation-empty", 9, created(nil)},
		{"torn-creation-partial-header", 9, created([]byte(segMagic[:5]))},
		{"torn-creation-zero-filled", 9, created(make([]byte, 300))},
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
			if h != tc.height {
				t.Fatalf("recovered Height() = %d, want %d", h, tc.height)
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
			// The chain must accept appends at the recovered head and
			// keep them across a reopen.
			next, err := NewBlock(&blocks[h-1], testRecords(t, 1, 900), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs2.Append(next); err != nil {
				t.Fatalf("Append() after tail recovery error = %v", err)
			}
			if err := fs2.Close(); err != nil {
				t.Fatal(err)
			}
			fs3 := openSmall(t, dir)
			defer func() { _ = fs3.Close() }()
			if fs3.Height() != h+1 {
				t.Fatalf("Height() = %d after appending and reopening, want %d", fs3.Height(), h+1)
			}
		})
	}
}

// TestDamagedHeaderIsNotTorn: only a newest segment with no header
// reached disk is a torn creation. A full header that is wrong, or a
// sealed segment's short header, is corruption and fails open.
func TestDamagedHeaderIsNotTorn(t *testing.T) {
	header := func(magic string, first uint64) []byte {
		b := binary.BigEndian.AppendUint64([]byte(magic), first)
		return append(b, make([]byte, 40)...)
	}
	cases := []struct {
		name string
		seg  func(segs []string) string // the file to write
		data []byte
	}{
		{"newest-wrong-magic", func([]string) string { return segmentName(10) }, header("RPSG9999", 10)},
		{"newest-wrong-serial", func([]string) string { return segmentName(10) }, header(segMagic, 11)},
		{"sealed-partial-header", func(segs []string) string { return filepath.Base(segs[0]) }, []byte(segMagic[:5])},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "chain")
			fs := openSmall(t, dir)
			buildChain(t, fs, 9, 2)
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.seg(segFiles(t, dir))), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenFileStoreOptions(dir, smallOpts()); !errors.Is(err, ErrCorruptChain) {
				t.Fatalf("open error = %v, want ErrCorruptChain", err)
			}
		})
	}
}

func TestTruncatedSealedSegmentFailsOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	buildChain(t, fs, 24, 2)
	if len(fs.segments) < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", len(fs.segments))
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
	before := len(fs.segments)
	removed, err := fs.Prune()
	if err != nil {
		t.Fatalf("Prune() error = %v", err)
	}
	if removed == 0 || len(fs.segments) != before-removed {
		t.Fatalf("Prune() removed %d of %d segments", removed, before)
	}
	if len(fs.segments) < 1 {
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
	fs := openSmall(t, dir)
	defer func() { _ = fs.Close() }()
	blocks := buildChain(t, fs, 24, 2)
	// Only the head is held in memory; serial 1, in a sealed segment,
	// is read from disk.
	got, err := fs.Get(1)
	if err != nil {
		t.Fatalf("Get(1) error = %v", err)
	}
	if got.Hash() != blocks[0].Hash() {
		t.Fatal("disk read returned a different block 1")
	}
}
