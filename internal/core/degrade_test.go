package core

import (
	"errors"
	"testing"

	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
	"repchain/internal/node"
)

func TestCrashedCollectorRoundProceeds(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	submitRound(t, e, 8, 0, 0)
	base, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CrashCollector(1); err != nil {
		t.Fatal(err)
	}
	if !e.colls[1].down {
		t.Fatal("collector 1 not marked down after crash")
	}
	submitRound(t, e, 8, 1, 0)
	res, err := e.RunRound()
	if err != nil {
		t.Fatalf("round with crashed collector: %v", err)
	}
	if res.Uploads >= base.Uploads {
		t.Fatalf("uploads %d with a crashed collector, %d with all live: no degradation visible",
			res.Uploads, base.Uploads)
	}
	if err := e.RestartCollector(1); err != nil {
		t.Fatal(err)
	}
	submitRound(t, e, 8, 2, 0)
	res, err = e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.Uploads != base.Uploads {
		t.Fatalf("uploads %d after restart, want %d", res.Uploads, base.Uploads)
	}
	if got := e.Metrics().Counter("chaos.collector_crashes").Value(); got != 1 {
		t.Fatalf("chaos.collector_crashes = %d, want 1", got)
	}
	if got := e.Metrics().Counter("chaos.collector_missed_rounds").Value(); got != 1 {
		t.Fatalf("chaos.collector_missed_rounds = %d, want 1", got)
	}
}

func TestCrashedGovernorQuorumProceedsAndResyncs(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	if err := e.CrashGovernor(2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		submitRound(t, e, 6, r, 0)
		if _, err := e.RunRound(); err != nil {
			t.Fatalf("round %d with crashed governor: %v", r, err)
		}
	}
	if h := e.Governor(2).Store().Height(); h != 0 {
		t.Fatalf("crashed governor height = %d, want 0", h)
	}
	if err := e.RestartGovernor(2); err != nil {
		t.Fatal(err)
	}
	submitRound(t, e, 6, 2, 0)
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	want := e.Governor(0).Store().Height()
	if h := e.Governor(2).Store().Height(); h != want {
		t.Fatalf("restarted governor height = %d, want %d (resynced)", h, want)
	}
	if got := e.Metrics().Counter("chaos.governor_resyncs").Value(); got < 1 {
		t.Fatal("chaos.governor_resyncs not counted")
	}
	if got := e.Metrics().Counter("chaos.blocks_synced").Value(); got != 2 {
		t.Fatalf("chaos.blocks_synced = %d, want 2", got)
	}
}

func TestCrashRestartGuards(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	if err := e.CrashCollector(-1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("CrashCollector(-1) = %v, want ErrNodeDown", err)
	}
	if err := e.RestartCollector(0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("restart of live collector = %v, want ErrNodeDown", err)
	}
	if err := e.CrashCollector(0); err != nil {
		t.Fatal(err)
	}
	if err := e.CrashCollector(0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("double crash = %v, want ErrNodeDown", err)
	}
	// Crashing every governor is refused at the last one.
	if err := e.CrashGovernor(0); err != nil {
		t.Fatal(err)
	}
	if err := e.CrashGovernor(1); err != nil {
		t.Fatal(err)
	}
	if err := e.CrashGovernor(2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("crash of last governor = %v, want ErrBadConfig", err)
	}
}

func TestGovernorMissedBlockResyncsNextRound(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	gov2 := identity.NodeID("governor/2")
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindBlock && to == gov2
	})
	submitRound(t, e, 6, 0, 0)
	if _, err := e.RunRound(); err != nil {
		t.Fatalf("round with one replica missing the block: %v", err)
	}
	if h := e.Governor(2).Store().Height(); h != 0 {
		t.Fatalf("governor 2 height = %d, want 0 (block dropped)", h)
	}
	if got := e.Metrics().Counter("chaos.governor_missed_block").Value(); got != 1 {
		t.Fatalf("chaos.governor_missed_block = %d, want 1", got)
	}
	e.Bus().SetDropFunc(nil)
	submitRound(t, e, 6, 1, 0)
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	if h, want := e.Governor(2).Store().Height(), e.Governor(0).Store().Height(); h != want {
		t.Fatalf("governor 2 height = %d, want %d after resync", h, want)
	}
}

func TestVRFBatchLossAbortsRecoverably(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindVRF && m.From == "governor/1"
	})
	submitRound(t, e, 6, 0, 0)
	if _, err := e.RunRound(); !errors.Is(err, ErrRoundAborted) {
		t.Fatalf("round with lost VRF batch = %v, want ErrRoundAborted", err)
	}
	if got := e.Metrics().Counter("chaos.rounds_aborted").Value(); got != 1 {
		t.Fatalf("chaos.rounds_aborted = %d, want 1", got)
	}
	for j := 0; j < e.Governors(); j++ {
		if h := e.Governor(j).Store().Height(); h != 0 {
			t.Fatalf("governor %d height = %d after abort, want 0", j, h)
		}
	}
	// Faults clear; the next round commits.
	e.Bus().SetDropFunc(nil)
	submitRound(t, e, 6, 1, 0)
	res, err := e.RunRound()
	if err != nil {
		t.Fatalf("round after faults cleared: %v", err)
	}
	if res.Serial != 1 {
		t.Fatalf("serial = %d, want 1", res.Serial)
	}
}

func TestDuplicateBlockDeliveryIdempotent(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	e.Bus().SetDupFunc(func(m network.Message, to identity.NodeID) int {
		if m.Kind == network.KindBlock || m.Kind == network.KindVRF {
			return 1
		}
		return 0
	})
	for r := 0; r < 3; r++ {
		submitRound(t, e, 6, r, 2)
		if _, err := e.RunRound(); err != nil {
			t.Fatalf("round %d with duplicated block/VRF traffic: %v", r, err)
		}
	}
	if got := e.Metrics().Counter("election.vrf_duplicate_batch").Value(); got == 0 {
		t.Fatal("duplicated VRF batches not counted")
	}
}

// TestResyncRefusesNonGovernorProposer: a block on the tallest replica
// whose proposer is not a roster governor is refused when a lagging
// replica is resynced from it, with the error AcceptBlock gives.
func TestResyncRefusesNonGovernorProposer(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	submitRound(t, e, 4, 0, 0)
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	src := e.Governor(0).Store()
	head, err := src.Head()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ledger.NewBlock(&head, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.SignAs("governor/9", e.Roster().Governors[0].PrivateKey)
	if err := src.Append(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunRound(); !errors.Is(err, node.ErrBadMessage) {
		t.Fatalf("RunRound() error = %v, want node.ErrBadMessage", err)
	}
}
