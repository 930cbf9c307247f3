package node

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chainFiles reads every file of a replica's chain directory by name.
func chainFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestCheckpointBehindRoundMatchesExplicit: the SnapshotEvery cadence,
// whose writes run behind the round and are collected only when the
// next checkpoint is due, leaves the chain directory byte for byte as
// an alliance that calls Checkpoint(nil, true) itself at the same round
// ends. Close, with the last write in flight, waits for it.
func TestCheckpointBehindRoundMatchesExplicit(t *testing.T) {
	const rounds = 7
	for _, every := range []uint64{2, 3} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			behindDir, explicitDir := t.TempDir(), t.TempDir()
			behind := newAlliance(t, func(_ int, cfg *GovernorConfig) {
				cfg.StateDir, cfg.SnapshotEvery, cfg.SegmentBytes = behindDir, int(every), 512
			})
			explicit := newAlliance(t, func(_ int, cfg *GovernorConfig) { cfg.StateDir, cfg.SegmentBytes = explicitDir, 512 })
			for r := 0; r < rounds; r++ {
				for _, a := range []*alliance{behind, explicit} {
					a.submit(a.round+1, 4)
					a.runRound()
					a.end()
				}
				for _, g := range explicit.govs {
					if anchor, _, _ := g.fs.SnapshotAnchor(); g.fs.Height() >= anchor+every {
						explicit.check(g.Checkpoint(nil, true))
					}
				}
			}
			if n := behind.reg.Counter("ledger.segments_pruned_total").Value(); n == 0 {
				t.Fatal("the cadence pruned no segment; test vacuous")
			}
			last := fmt.Sprintf("snapshot-%020d.snap", rounds-rounds%every)
			for j := range behind.govs {
				behind.check(behind.govs[j].Close())
				explicit.check(explicit.govs[j].Close())
				name := fmt.Sprintf("governor-%d.chain", j)
				got, want := chainFiles(t, filepath.Join(behindDir, name)), chainFiles(t, filepath.Join(explicitDir, name))
				if len(got) != len(want) {
					t.Fatalf("governor %d: %d files behind the round, %d explicit", j, len(got), len(want))
				}
				for file, data := range want {
					if !bytes.Equal(got[file], data) {
						t.Fatalf("governor %d: %s differs from the explicit checkpoint's", j, file)
					}
				}
				if _, ok := want[last]; !ok {
					t.Fatalf("governor %d: no %s among %d files", j, last, len(want))
				}
			}
		})
	}
}

// TestCheckpointWriteFailureFailsNextRoundEnd: a snapshot write that
// fails behind the round fails the governor's next round-end Step with
// the snapshot error.
func TestCheckpointWriteFailureFailsNextRoundEnd(t *testing.T) {
	dir := t.TempDir()
	a := newAlliance(t, func(_ int, cfg *GovernorConfig) { cfg.StateDir, cfg.SnapshotEvery = dir, 1 })
	a.runRound()
	a.end()
	tmp := filepath.Join(dir, "governor-0.chain", fmt.Sprintf("snapshot-%020d.snap.tmp", 2))
	a.check(os.Mkdir(tmp, 0o755))
	a.runRound()
	a.end() // starts the write that fails
	a.runRound()
	for j := range a.govs {
		_, err := a.try(j, a.at(1))
		if j > 0 {
			a.check(err)
		} else if err == nil || !strings.Contains(err.Error(), "governor/0 snapshot") || !strings.Contains(err.Error(), tmp) {
			t.Fatalf("round end after a failed write: Step() error = %v, want governor/0's snapshot error at %s", err, tmp)
		}
	}
}

// TestCheckpointWriteFailureSurfacesWhenDue: with SnapshotEvery 3, a
// snapshot write that fails behind the round leaves the round ends
// before the next checkpoint clean; the due round end fails with the
// snapshot error, and so does a Close before it.
func TestCheckpointWriteFailureSurfacesWhenDue(t *testing.T) {
	for _, closeEarly := range []bool{false, true} {
		t.Run(fmt.Sprintf("close=%v", closeEarly), func(t *testing.T) {
			dir := t.TempDir()
			a := newAlliance(t, func(_ int, cfg *GovernorConfig) { cfg.StateDir, cfg.SnapshotEvery = dir, 3 })
			tmp := filepath.Join(dir, "governor-0.chain", fmt.Sprintf("snapshot-%020d.snap.tmp", 6))
			a.check(os.Mkdir(tmp, 0o755))
			for a.round < 8 { // round 6's end starts the write that fails
				a.runRound()
				a.end()
			}
			wantErr := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "governor/0 snapshot") || !strings.Contains(err.Error(), tmp) {
					t.Fatalf("%s after a failed write: error = %v, want governor/0's snapshot error at %s", what, err, tmp)
				}
			}
			if closeEarly {
				wantErr("Close()", a.govs[0].Close())
				return
			}
			a.runRound()
			for j := range a.govs {
				_, err := a.try(j, a.at(1))
				if j > 0 {
					a.check(err)
				} else {
					wantErr("due round end", err)
				}
			}
		})
	}
}
