package reputation

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repchain/internal/identity"
	"repchain/internal/tx"
)

// buildDirtyTable creates a table and runs enough traffic that every
// state component is non-trivial.
func buildDirtyTable(t testing.TB) *Table {
	t.Helper()
	tab := fullTable(t, 4, DefaultParams())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		reports := []Report{
			{Collector: 0, Label: tx.LabelValid},
			{Collector: 1, Label: tx.LabelInvalid},
			{Collector: 2, Label: tx.LabelValid},
		}
		status := tx.StatusValid
		if i%3 == 0 {
			status = tx.StatusInvalid
		}
		if i%2 == 0 {
			if err := tab.RecordChecked(0, reports, status); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := tab.RecordRevealed(0, reports, status); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tab.RecordForgery(3); err != nil {
		t.Fatal(err)
	}
	_ = rng
	return tab
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := buildDirtyTable(t)
	snap := src.Snapshot()

	dst := fullTable(t, 4, DefaultParams())
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot() error = %v", err)
	}

	// All state must match exactly.
	for c := 0; c < 4; c++ {
		sv, err := src.Vector(c)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := dst.Vector(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sv {
			if sv[i] != dv[i] {
				t.Fatalf("collector %d vector[%d]: %v vs %v", c, i, sv[i], dv[i])
			}
		}
	}
	srcLoss, err := src.GovernorLoss(0)
	if err != nil {
		t.Fatal(err)
	}
	dstLoss, err := dst.GovernorLoss(0)
	if err != nil {
		t.Fatal(err)
	}
	if srcLoss != dstLoss {
		t.Fatalf("governor loss %v vs %v", srcLoss, dstLoss)
	}
	srcReg, err := src.Regret(0)
	if err != nil {
		t.Fatal(err)
	}
	dstReg, err := dst.Regret(0)
	if err != nil {
		t.Fatal(err)
	}
	if srcReg != dstReg {
		t.Fatalf("regret %v vs %v", srcReg, dstReg)
	}
}

func TestSnapshotRestoredTableKeepsWorking(t *testing.T) {
	src := buildDirtyTable(t)
	dst := fullTable(t, 4, DefaultParams())
	if err := dst.RestoreSnapshot(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Screening draws from both tables agree in distribution: same
	// seed, same reports, same decisions.
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 1, Label: tx.LabelInvalid},
	}
	rngA := rand.New(rand.NewSource(77))
	rngB := rand.New(rand.NewSource(77))
	for i := 0; i < 50; i++ {
		a, err := src.Screen(rngA, 0, reports)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dst.Screen(rngB, 0, reports)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("draw %d diverged after restore: %+v vs %+v", i, a, b)
		}
	}
}

func TestRestoreSnapshotRejectsMismatches(t *testing.T) {
	src := buildDirtyTable(t)
	snap := src.Snapshot()

	// Wrong parameters.
	otherParams := DefaultParams()
	otherParams.F = 0.7
	wrongParams := fullTable(t, 4, otherParams)
	if err := wrongParams.RestoreSnapshot(snap); !errors.Is(err, ErrBadParams) {
		t.Fatalf("params mismatch error = %v, want ErrBadParams", err)
	}

	// Wrong topology (different collector count).
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: 1, Collectors: 5, Degree: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrongTopo, err := NewTable(topo, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongTopo.RestoreSnapshot(snap); !errors.Is(err, ErrBadParams) {
		t.Fatalf("topology mismatch error = %v, want ErrBadParams", err)
	}

	// Garbage and truncation.
	fresh := fullTable(t, 4, DefaultParams())
	if err := fresh.RestoreSnapshot([]byte("junk")); err == nil {
		t.Fatal("garbage restored")
	}
	if err := fresh.RestoreSnapshot(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	if err := fresh.RestoreSnapshot(append(snap, 0)); err == nil {
		t.Fatal("padded snapshot restored")
	}
}

// FuzzReputationRestore feeds the checkpoint restore — whose input is a
// file a crash or an attacker may have written — arbitrary bytes. It
// must never panic; a refused input must leave the table as built; an
// accepted one must re-snapshot to the same bytes and keep Lemma 2:
// every set of -1 reports is checked with probability at least 1 − f.
func FuzzReputationRestore(f *testing.F) {
	f.Add(buildDirtyTable(f).Snapshot())
	nan := fullTable(f, 4, DefaultParams())
	in, err := nan.Instance(0)
	if err != nil {
		f.Fatal(err)
	}
	weights := make([]float64, in.Experts())
	for i := range weights {
		weights[i] = 1
	}
	weights[1] = math.NaN()
	if err := in.Restore(weights, make([]float64, in.Experts()), 0, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(nan.Snapshot())
	fresh := fullTable(f, 4, DefaultParams()).Snapshot()
	f.Fuzz(func(t *testing.T, b []byte) {
		tab := fullTable(t, 4, DefaultParams())
		if err := tab.RestoreSnapshot(b); err != nil {
			if !bytes.Equal(tab.Snapshot(), fresh) {
				t.Fatalf("refused snapshot (%v) changed the table", err)
			}
			return
		}
		if again := tab.Snapshot(); !bytes.Equal(again, b) {
			t.Fatalf("accepted snapshot re-encodes to\n% x\nwant\n% x", again, b)
		}
		floor := 1 - tab.Params().F
		for set := 1; set < 1<<4; set++ {
			var reports []Report
			for c := 0; c < 4; c++ {
				if set&(1<<c) != 0 {
					reports = append(reports, Report{Collector: c, Label: tx.LabelInvalid})
				}
			}
			if p, err := tab.CheckProbability(0, reports); err != nil || !(p >= floor) {
				t.Fatalf("collectors %04b all -1: check probability %v, %v; Lemma 2 floor %v", set, p, err, floor)
			}
		}
	})
}

func TestSnapshotDeterministic(t *testing.T) {
	src := buildDirtyTable(t)
	a, b := src.Snapshot(), src.Snapshot()
	if len(a) != len(b) {
		t.Fatal("snapshot lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("snapshots differ byte-for-byte")
		}
	}
}
