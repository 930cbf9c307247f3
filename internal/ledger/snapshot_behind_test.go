package ledger

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// extendChain appends n blocks of two records each on top of prev.
func extendChain(t *testing.T, s Store, prev Block, n int, start uint64) Block {
	t.Helper()
	for i := 0; i < n; i++ {
		b, err := NewBlock(&prev, testRecords(t, 2, start+uint64(2*i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendFrame(b, b.Hash(), b.EncodeBytes()); err != nil {
			t.Fatalf("AppendFrame(%d) error = %v", b.Serial, err)
		}
		prev = b
	}
	return prev
}

// TestSnapshotBehindAppendsReplays: a snapshot started at height h while
// K more blocks are appended — across a segment roll — and read claims
// h after a reopen; the K blocks replay and the head is the same.
func TestSnapshotBehindAppendsReplays(t *testing.T) {
	const h, k = 6, 12
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	blocks := buildChain(t, fs, h, 2)
	if err := fs.StartSnapshot([]byte("state-at-6"), true); err != nil {
		t.Fatalf("StartSnapshot() error = %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // readers while the write runs: the head and pruned serials
		defer wg.Done()
		for s := uint64(1); s <= h; s++ {
			if _, err := fs.Get(s); err != nil && !errors.Is(err, ErrPruned) {
				t.Errorf("Get(%d) during the snapshot write: %v", s, err)
			}
		}
	}()
	head := extendChain(t, fs, blocks[h-1], k, 500)
	wg.Wait()
	if _, err := fs.WaitSnapshot(); err != nil {
		t.Fatalf("WaitSnapshot() error = %v", err)
	}
	if active := fs.segments[len(fs.segments)-1]; active.first <= h {
		t.Fatalf("active segment starts at %d: the appends never rolled the one holding block %d", active.first, h)
	}

	fs = reopenReplaying(t, fs, dir, k)
	defer func() { _ = fs.Close() }()
	snap, ok := fs.LatestSnapshot()
	if !ok || snap.Height != h || snap.Head != blocks[h-1].Hash() || string(snap.App) != "state-at-6" {
		t.Fatalf("LatestSnapshot() = (height %d, %q, %v), want height %d over block %d", snap.Height, snap.App, ok, h, h)
	}
	if fs.Height() != h+k || fs.HeadHash() != head.Hash() {
		t.Fatalf("reopened at height %d head %s, want %d head %s", fs.Height(), fs.HeadHash().Short(), h+k, head.Hash().Short())
	}
	if err := VerifyChain(fs); err != nil {
		t.Fatalf("VerifyChain() error = %v", err)
	}
}

// TestSnapshotOverSealedSegment: a write whose segment was sealed — so
// fsynced and closed — after the capture finds it closed and succeeds.
func TestSnapshotOverSealedSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	defer func() { _ = fs.Close() }()
	blocks := buildChain(t, fs, 3, 2)
	captured := fs.active
	for prev := blocks[2]; fs.active == captured; {
		prev = extendChain(t, fs, prev, 1, 700+prev.Serial)
	}
	w := &snapshotWrite{done: make(chan struct{}), snap: Snapshot{Height: 3, Head: blocks[2].Hash()}}
	fs.persist(w, captured)
	if w.err != nil {
		t.Fatalf("snapshot over a sealed segment: %v", w.err)
	}
	if h, head, ok := fs.SnapshotAnchor(); !ok || h != 3 || head != blocks[2].Hash() {
		t.Fatalf("SnapshotAnchor() = (%d, %s, %v), want block 3", h, head.Short(), ok)
	}
}

// TestSnapshotWriteFailureReportedOnce: a write that fails behind its
// caller publishes nothing and returns its error from the next call
// that collects it, and from no later one.
func TestSnapshotWriteFailureReportedOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	defer func() { _ = fs.Close() }()
	buildChain(t, fs, 3, 2)
	tmp := filepath.Join(dir, snapshotName(3)+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.StartSnapshot([]byte("x"), true); err != nil {
		t.Fatalf("StartSnapshot() error = %v, want it left for the wait", err)
	}
	if _, ok := fs.LatestSnapshot(); ok {
		t.Fatal("a failed write published a snapshot")
	}
	if _, err := fs.WaitSnapshot(); err == nil || !strings.Contains(err.Error(), tmp) {
		t.Fatalf("WaitSnapshot() error = %v, want the failure at %s", err, tmp)
	}
	if _, err := fs.WaitSnapshot(); err != nil {
		t.Fatalf("second WaitSnapshot() error = %v, want nil", err)
	}
}

// TestSnapshotInFlightCaptureHeight: CaptureHeight reads the latest
// capture without waiting — the uncollected write's, whether it runs,
// is done or failed — and the durable snapshot's once the write is
// collected, or after a failed one.
func TestSnapshotInFlightCaptureHeight(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	defer func() { _ = fs.Close() }()
	want := func(when string, h uint64) {
		t.Helper()
		if got := fs.CaptureHeight(); got != h {
			t.Fatalf("CaptureHeight() %s = %d, want %d", when, got, h)
		}
	}
	blocks := buildChain(t, fs, 3, 2)
	want("before any snapshot", 0)

	if err := fs.StartSnapshot([]byte("at-3"), true); err != nil {
		t.Fatal(err)
	}
	head := extendChain(t, fs, blocks[2], 4, 500)
	want("with the write uncollected", 3)
	if _, err := fs.WaitSnapshot(); err != nil {
		t.Fatalf("WaitSnapshot() error = %v", err)
	}
	want("after the write is collected", 3)

	tmp := filepath.Join(dir, snapshotName(7)+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.StartSnapshot([]byte("at-7"), true); err != nil {
		t.Fatal(err)
	}
	extendChain(t, fs, head, 1, 600)
	if snap, _ := fs.LatestSnapshot(); snap.Height != 3 {
		t.Fatalf("LatestSnapshot() height %d after a failed write, want 3", snap.Height)
	}
	want("with a failed write uncollected", 7)
	if _, err := fs.WaitSnapshot(); err == nil || !strings.Contains(err.Error(), tmp) {
		t.Fatalf("WaitSnapshot() error = %v, want the failure at %s", err, tmp)
	}
	want("after a failed write is collected", 3)

	// A write that never finishes while the read runs: the read does not
	// wait for it.
	running := &snapshotWrite{snap: Snapshot{Height: 8}, done: make(chan struct{})}
	fs.mu.Lock()
	fs.write, fs.written = running, running.done
	fs.mu.Unlock()
	want("with a write running", 8)
	close(running.done)
}

// TestSnapshotInFlightSurvivesClose: Close waits for the snapshot
// write it finds running, so the snapshot is on disk at reopen.
func TestSnapshotInFlightSurvivesClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	buildChain(t, fs, 5, 2)
	if err := fs.StartSnapshot([]byte("closing"), false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("Close() error = %v", err)
	}
	fs = openSmall(t, dir)
	defer func() { _ = fs.Close() }()
	if snap, ok := fs.LatestSnapshot(); !ok || snap.Height != 5 || string(snap.App) != "closing" {
		t.Fatalf("LatestSnapshot() after reopen = (height %d, %q, %v), want height 5", snap.Height, snap.App, ok)
	}
}

// TestSnapshotGenerationsListedAtOpen: the generations a store found at
// open count toward snapshotKeep, so one more write deletes the oldest.
func TestSnapshotGenerationsListedAtOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	prev := buildChain(t, fs, 1, 1)[0]
	for i := 0; i < snapshotKeep; i++ {
		if _, err := fs.WriteSnapshot(nil); err != nil {
			t.Fatal(err)
		}
		prev = extendChain(t, fs, prev, 1, uint64(100+10*i))
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs = openSmall(t, dir)
	defer func() { _ = fs.Close() }()
	if _, err := fs.WriteSnapshot(nil); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != snapshotKeep || filepath.Base(snaps[0]) != snapshotName(2) {
		t.Fatalf("snapshot files %v, want the newest %d from height 2", snaps, snapshotKeep)
	}
}
