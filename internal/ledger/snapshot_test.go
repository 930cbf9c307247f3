package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repchain/internal/crypto"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := Snapshot{
		Height: 42,
		Head:   crypto.Sum([]byte("head")),
		App:    []byte("application state"),
	}
	got, err := decodeSnapshot(encodeSnapshot(s))
	if err != nil {
		t.Fatalf("decodeSnapshot() error = %v", err)
	}
	if got.Height != s.Height || got.Head != s.Head || !bytes.Equal(got.App, s.App) {
		t.Fatalf("round trip changed snapshot: %+v != %+v", got, s)
	}
	// Empty app state is legal (a chain with no application payload).
	empty := Snapshot{Height: 1, Head: crypto.Sum([]byte("x"))}
	if _, err := decodeSnapshot(encodeSnapshot(empty)); err != nil {
		t.Fatalf("decodeSnapshot(empty app) error = %v", err)
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	enc := encodeSnapshot(Snapshot{Height: 7, Head: crypto.Sum([]byte("h")), App: []byte("state")})
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-3] }},
		{"flipped-body-byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
		{"flipped-crc", func(b []byte) []byte { b[13] ^= 0xff; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mangle(append([]byte(nil), enc...))
			if _, err := decodeSnapshot(data); err == nil {
				t.Fatal("decodeSnapshot() accepted damaged data")
			}
		})
	}
}

// TestKillDuringSnapshotKeepsPrevious is the crash-atomicity
// guarantee: however far a snapshot write got before the crash — a
// leftover temp file, a truncated rename target, a zero-length file —
// recovery must select the previous intact snapshot and never
// half-written state.
func TestKillDuringSnapshotKeepsPrevious(t *testing.T) {
	cases := []struct {
		name  string
		crash func(t *testing.T, dir string, nextHeight uint64)
	}{
		{"tmp-left-behind", func(t *testing.T, dir string, h uint64) {
			// Killed before the rename: only the temp file exists.
			tmp := filepath.Join(dir, snapshotName(h)+".tmp")
			if err := os.WriteFile(tmp, []byte("partial snapsho"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-snap", func(t *testing.T, dir string, h uint64) {
			// Simulates a non-atomic writer dying mid-file (or a disk
			// eating the tail): the .snap name exists but is cut short.
			full := encodeSnapshot(Snapshot{Height: h, Head: crypto.Sum([]byte("next")), App: []byte("next state")})
			if err := os.WriteFile(filepath.Join(dir, snapshotName(h)), full[:len(full)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-length-snap", func(t *testing.T, dir string, h uint64) {
			if err := os.WriteFile(filepath.Join(dir, snapshotName(h)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-snap-body", func(t *testing.T, dir string, h uint64) {
			full := encodeSnapshot(Snapshot{Height: h, Head: crypto.Sum([]byte("next")), App: []byte("next state")})
			full[len(full)-2] ^= 0xff
			if err := os.WriteFile(filepath.Join(dir, snapshotName(h)), full, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "chain")
			fs := openSmall(t, dir)
			blocks := buildChain(t, fs, 10, 2)
			if _, err := fs.WriteSnapshot([]byte("good state at 10")); err != nil {
				t.Fatal(err)
			}
			prev := blocks[len(blocks)-1]
			for i := 0; i < 2; i++ {
				b, err := NewBlock(&prev, testRecords(t, 1, uint64(700+i)), 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.Append(b); err != nil {
					t.Fatal(err)
				}
				prev = b
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			tc.crash(t, dir, 12)

			fs2 := openSmall(t, dir)
			defer func() { _ = fs2.Close() }()
			snap, ok := fs2.LatestSnapshot()
			if !ok {
				t.Fatal("no snapshot recovered")
			}
			if snap.Height != 10 || string(snap.App) != "good state at 10" {
				t.Fatalf("recovered snapshot (height %d, app %q), want the previous intact one", snap.Height, snap.App)
			}
			if fs2.Height() != 12 {
				t.Fatalf("Height() = %d, want 12", fs2.Height())
			}
			if tc.name != "tmp-left-behind" && fs2.Recovery().SnapshotsSkipped == 0 {
				t.Fatal("RecoveryInfo.SnapshotsSkipped = 0, want the damaged snapshot counted")
			}
			if err := VerifyChain(fs2); err != nil {
				t.Fatalf("VerifyChain() error = %v", err)
			}
		})
	}
}

func TestSnapshotKeepTrimsOldGenerations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs, err := OpenFileStoreOptions(dir, StoreOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs.Close() }()
	blocks := buildChain(t, fs, 4, 1)
	prev := blocks[len(blocks)-1]
	for i := 0; i < 5; i++ {
		if _, err := fs.WriteSnapshot([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		b, err := NewBlock(&prev, testRecords(t, 1, uint64(300+i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Append(b); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != snapshotKeep {
		t.Fatalf("%d snapshot files on disk, want snapshotKeep=%d", len(snaps), snapshotKeep)
	}
	// The newest generation is the one recovery reports.
	snap, ok := fs.LatestSnapshot()
	if !ok || snap.Height != 8 || snap.App[0] != 4 {
		t.Fatalf("LatestSnapshot() = (height %d, app %v, %v), want height 8 app [4]", snap.Height, snap.App, ok)
	}
}

func TestWriteSnapshotOnEmptyStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	fs := openSmall(t, dir)
	snap, err := fs.WriteSnapshot([]byte("empty"))
	if err != nil {
		t.Fatalf("WriteSnapshot() on empty store error = %v", err)
	}
	if snap.Height != 0 || !snap.Head.IsZero() {
		t.Fatalf("empty-store snapshot = height %d head %v, want 0/zero", snap.Height, snap.Head)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2 := openSmall(t, dir)
	defer func() { _ = fs2.Close() }()
	if fs2.Height() != 0 {
		t.Fatalf("Height() = %d, want 0", fs2.Height())
	}
	buildChain(t, fs2, 2, 1)
}
