package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repchain/internal/core"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/reputation"
)

// train drives the cluster through rounds of mixed-validity traffic so
// the governors' RWM columns drift away from their uniform start.
func train(t *testing.T, cl *Cluster, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for j := 0; j < 8; j++ {
			valid := (j+r)%3 != 2
			if _, _, err := cl.SubmitTx(j, "train", payload(valid, byte(j), byte(r)), valid); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
}

// column captures one provider's full learned state under one governor.
type column struct {
	weights   []float64
	losses    []float64
	govLoss   float64
	rounds    int
	misreport []float64 // indexed by link slot t
	forge     []float64
}

func readColumn(t *testing.T, table *reputation.Table, local, degree int) column {
	t.Helper()
	in, err := table.Instance(local)
	if err != nil {
		t.Fatal(err)
	}
	col := column{
		weights: make([]float64, in.Experts()),
		losses:  make([]float64, in.Experts()),
		govLoss: in.GovernorLoss(),
		rounds:  in.Rounds(),
	}
	for i := range col.losses {
		col.weights[i] = in.Weight(i)
		col.losses[i] = in.ExpertLoss(i)
	}
	for tt := 0; tt < degree; tt++ {
		col.misreport = append(col.misreport, table.Misreport(local*degree+tt))
		col.forge = append(col.forge, table.Forge(local*degree+tt))
	}
	return col
}

func requireColumnsEqual(t *testing.T, what string, a, b column) {
	t.Helper()
	if len(a.weights) != len(b.weights) || a.govLoss != b.govLoss || a.rounds != b.rounds {
		t.Fatalf("%s: column shape/loss mismatch: %+v vs %+v", what, a, b)
	}
	for i := range a.weights {
		if a.weights[i] != b.weights[i] || a.losses[i] != b.losses[i] {
			t.Fatalf("%s: expert %d differs: w %v vs %v, loss %v vs %v",
				what, i, a.weights[i], b.weights[i], a.losses[i], b.losses[i])
		}
	}
	for i := range a.misreport {
		if a.misreport[i] != b.misreport[i] || a.forge[i] != b.forge[i] {
			t.Fatalf("%s: collector slot %d scores differ", what, i)
		}
	}
}

// TestRehomeWeightPortabilityBitwise re-homes provider 2 from committee
// 0 to committee 1 and asserts the destination governors screen it with
// state bitwise-equal to (a) the source governors' live tables before
// the move and (b) an events.ReplayReputation reconstruction of the
// source committee's event log — the portability guarantee from
// DESIGN.md §4i.
func TestRehomeWeightPortabilityBitwise(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			cfg := baseConfig(42)
			if disk {
				cfg.ChainDir = t.TempDir()
			}
			cl, err := New(Config{Base: cfg, Committees: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			train(t, cl, 8)

			const (
				mover    = 2 // committee 0 (evens), local index 1
				src      = 0
				dst      = 1
				srcLocal = 1
				newLocal = 4 // appended after committee 1's four odds
				degree   = 2
			)
			governors := cl.Engine(src).Governors()

			// Snapshot the live state and the event log before the move;
			// the re-home rebuilds both committees.
			srcEvents := cl.Engine(src).Events().Events()
			oldSrcCfg, err := cl.committeeConfig(src)
			if err != nil {
				t.Fatal(err)
			}
			lives := make([]column, governors)
			replays := make([]column, governors)
			for j := 0; j < governors; j++ {
				lives[j] = readColumn(t, cl.Engine(src).Governor(j).Table(), srcLocal, degree)
				topo, err := identity.NewRegularTopology(oldSrcCfg.Spec)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := reputation.NewTable(topo, oldSrcCfg.Params)
				if err != nil {
					t.Fatal(err)
				}
				gid := string(cl.Engine(src).Governor(j).ID())
				if err := events.ReplayReputation(srcEvents, gid, fresh); err != nil {
					t.Fatal(err)
				}
				replays[j] = readColumn(t, fresh, srcLocal, degree)
				requireColumnsEqual(t, fmt.Sprintf("governor %d live vs replay", j), lives[j], replays[j])
			}
			srcHeight := cl.Engine(src).Governor(0).Store().Height()
			dstHeight := cl.Engine(dst).Governor(0).Store().Height()

			if err := cl.Rehome(mover, dst); err != nil {
				t.Fatal(err)
			}

			slot, err := cl.Home(mover)
			if err != nil {
				t.Fatal(err)
			}
			if slot.Committee != dst || slot.Local != newLocal {
				t.Fatalf("provider %d re-homed to %+v, want committee %d local %d", mover, slot, dst, newLocal)
			}
			for j := 0; j < governors; j++ {
				got := readColumn(t, cl.Engine(dst).Governor(j).Table(), newLocal, degree)
				requireColumnsEqual(t, fmt.Sprintf("governor %d migrated vs replay", j), got, replays[j])
			}
			if disk {
				if h := cl.Engine(src).Governor(0).Store().Height(); h != srcHeight {
					t.Fatalf("source chain height %d after re-home, want %d", h, srcHeight)
				}
				if h := cl.Engine(dst).Governor(0).Store().Height(); h != dstHeight {
					t.Fatalf("destination chain height %d after re-home, want %d", h, dstHeight)
				}
			}
			if v := cl.Metrics().Snapshot().Counters["shard.rehomes_total"]; v != 1 {
				t.Fatalf("shard.rehomes_total = %d, want 1", v)
			}

			// The cluster keeps running: the moved provider submits on
			// its new committee and both chains stay verifiable.
			train(t, cl, 2)
			for i := 0; i < 2; i++ {
				eng := cl.Engine(i)
				for j := 0; j < eng.Governors(); j++ {
					if err := ledger.VerifyChain(eng.Governor(j).Store()); err != nil {
						t.Fatalf("committee %d governor %d after re-home: %v", i, j, err)
					}
				}
			}
		})
	}
}

func TestRehomeRejectsUnsupportedShapes(t *testing.T) {
	t.Run("single committee", func(t *testing.T) {
		cl, err := New(Config{Base: baseConfig(1), Committees: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Rehome(0, 0); !errors.Is(err, ErrRehome) {
			t.Fatalf("err = %v, want ErrRehome", err)
		}
	})
	t.Run("bad indices and same committee", func(t *testing.T) {
		cl, err := New(Config{Base: baseConfig(1), Committees: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Rehome(99, 1); !errors.Is(err, core.ErrUnknownProvider) {
			t.Fatalf("err = %v, want core.ErrUnknownProvider", err)
		}
		if err := cl.Rehome(0, 5); !errors.Is(err, ErrUnknownCommittee) {
			t.Fatalf("err = %v, want ErrUnknownCommittee", err)
		}
		if err := cl.Rehome(0, 0); !errors.Is(err, ErrRehome) {
			t.Fatalf("err = %v, want ErrRehome", err)
		}
	})
	t.Run("shared collectors", func(t *testing.T) {
		cfg := baseConfig(1)
		cfg.Spec = identity.TopologySpec{Providers: 8, Collectors: 8, Degree: 2} // s = 2
		cl, err := New(Config{Base: cfg, Committees: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Rehome(0, 1); !errors.Is(err, ErrRehome) {
			t.Fatalf("err = %v, want ErrRehome", err)
		}
	})
	t.Run("would empty the source", func(t *testing.T) {
		cfg := baseConfig(1)
		cfg.Spec = identity.TopologySpec{Providers: 2, Collectors: 4, Degree: 2} // one provider per committee
		cl, err := New(Config{Base: cfg, Committees: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Rehome(0, 1); !errors.Is(err, ErrRehome) || !strings.Contains(err.Error(), "without providers") {
			t.Fatalf("err = %v, want ErrRehome for an emptied committee", err)
		}
	})
}
