package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
	"repchain/internal/node"
)

// TestPersistentChainSurvivesRestart runs an engine with file-backed
// governor replicas, restarts it, verifies the chain reloads, and
// confirms new blocks extend the persisted history.
func TestPersistentChainSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.ChainDir = dir

	e1 := newTestEngine(t, cfg)
	for r := 0; r < 4; r++ {
		submitRound(t, e1, 8, r, 3)
		if _, err := e1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	headBefore, err := e1.Governor(0).Store().Head()
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatalf("Close() error = %v", err)
	}

	// Restart: same config, same directory.
	e2 := newTestEngine(t, cfg)
	defer func() {
		if err := e2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	for j := 0; j < e2.Governors(); j++ {
		store := e2.Governor(j).Store()
		if store.Height() != 4 {
			t.Fatalf("governor %d reloaded height %d, want 4", j, store.Height())
		}
		if err := ledger.VerifyChain(store); err != nil {
			t.Fatalf("governor %d reloaded chain: %v", j, err)
		}
	}
	head, err := e2.Governor(0).Store().Head()
	if err != nil {
		t.Fatal(err)
	}
	if head.Hash() != headBefore.Hash() {
		t.Fatal("restart changed the chain head")
	}

	// The restarted engine keeps extending the same chain.
	submitRound(t, e2, 6, 9, 0)
	res, err := e2.RunRound()
	if err != nil {
		t.Fatalf("post-restart RunRound() error = %v", err)
	}
	if res.Serial != 5 {
		t.Fatalf("post-restart serial = %d, want 5", res.Serial)
	}
	if res.Block.PrevHash != headBefore.Hash() {
		t.Fatal("post-restart block does not link to the persisted head")
	}
	for j := 0; j < e2.Governors(); j++ {
		if err := ledger.VerifyChain(e2.Governor(j).Store()); err != nil {
			t.Fatalf("governor %d extended chain: %v", j, err)
		}
	}
}

// TestReputationSurvivesRestart verifies that learned collector
// weights persist across an engine restart when ChainDir is set.
func TestReputationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.ChainDir = dir
	cfg.Spec = identity.TopologySpec{Providers: 2, Collectors: 4, Degree: 4}
	cfg.Params.F = 0.9
	cfg.Behaviors = []node.Behavior{
		node.ProbBehavior{Misreport: 1},
		nil, nil, nil,
	}

	e1 := newTestEngine(t, cfg)
	for r := 0; r < 6; r++ {
		submitRound(t, e1, 10, r, 0)
		if _, err := e1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ { // settle argues so reveals land
		if _, err := e1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	vecBefore, err := e1.Governor(0).Table().Vector(0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Governor(0).Table().Misreport(0) == 0 {
		t.Fatal("liar's misreport score untouched before restart; test vacuous")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, cfg)
	defer func() {
		if err := e2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	vecAfter, err := e2.Governor(0).Table().Vector(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecAfter) != len(vecBefore) {
		t.Fatalf("vector length changed across restart: %d vs %d", len(vecAfter), len(vecBefore))
	}
	for i := range vecBefore {
		if vecAfter[i] != vecBefore[i] {
			t.Fatalf("reputation vector[%d] = %v after restart, want %v", i, vecAfter[i], vecBefore[i])
		}
	}
}

// TestRoundCounterAndSnapshotSurviveRestart pins the full restart
// contract: after Close and reopen, the round counter resumes from the
// persisted height (so VRF election inputs stay unique) and every
// governor's reputation snapshot is byte-identical to what was saved.
// The cadence checkpoint of round 4 is a round stale by then: the one
// Close writes must win.
func TestRoundCounterAndSnapshotSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.ChainDir = dir
	cfg.SnapshotEvery = 2

	e1 := newTestEngine(t, cfg)
	const rounds = 5
	for r := 0; r < rounds; r++ {
		submitRound(t, e1, 8, r, 3)
		if _, err := e1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if e1.Round() != rounds {
		t.Fatalf("Round() = %d before restart, want %d", e1.Round(), rounds)
	}
	snapsBefore := make([][]byte, e1.Governors())
	for j := range snapsBefore {
		snapsBefore[j] = e1.Governor(j).Table().Snapshot()
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, cfg)
	defer func() {
		if err := e2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	if e2.Round() != rounds {
		t.Fatalf("Round() = %d after restart, want %d", e2.Round(), rounds)
	}
	for j := range snapsBefore {
		if !bytes.Equal(e2.Governor(j).Table().Snapshot(), snapsBefore[j]) {
			t.Fatalf("governor %d reputation snapshot changed across restart", j)
		}
	}
	res, err := e2.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.Serial != rounds+1 {
		t.Fatalf("first post-restart serial = %d, want %d", res.Serial, rounds+1)
	}
}

// TestCorruptCheckpointFailsRestart: a CRC-valid ledger snapshot whose
// application state does not decode must fail engine construction with
// an error naming the governor, not silently reset its learned weights,
// and leave no chain store open.
func TestCorruptCheckpointFailsRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.ChainDir = dir

	// One block gives every governor an open chain segment.
	e := newTestEngine(t, cfg)
	submitRound(t, e, 4, 0, 3)
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := ledger.OpenFileStore(filepath.Join(dir, "governor-1.chain"))
	if err != nil {
		t.Fatal(err)
	}
	if _, found := fs.LatestSnapshot(); !found {
		t.Fatal("Close left no checkpoint")
	}
	if _, err := fs.WriteSnapshot([]byte("not a governor state")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	before := openFiles(t)
	_, err = New(cfg)
	if err == nil {
		t.Fatal("New() accepted a corrupted checkpoint")
	}
	if !strings.Contains(err.Error(), "governor/1") {
		t.Fatalf("error %q does not name the corrupt governor", err)
	}
	if after := openFiles(t); after != before {
		t.Fatalf("%d open files after the failed New, %d before: its chain stores were left open", after, before)
	}
}

// openFiles counts this process's open file descriptors; it skips the
// test where /proc/self/fd does not exist.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// TestPersistentChainDeterministicAcrossBackends: the same seed and
// workload produce identical blocks whether replicas are in memory or
// on disk.
func TestPersistentChainDeterministicAcrossBackends(t *testing.T) {
	run := func(dir string) string {
		cfg := defaultConfig()
		cfg.ChainDir = dir
		e := newTestEngine(t, cfg)
		defer func() {
			if err := e.Close(); err != nil {
				t.Errorf("Close() error = %v", err)
			}
		}()
		for r := 0; r < 3; r++ {
			submitRound(t, e, 6, r, 3)
			if _, err := e.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		head, err := e.Governor(0).Store().Head()
		if err != nil {
			t.Fatal(err)
		}
		return head.Hash().String()
	}
	mem := run("")           // in-memory
	disk := run(t.TempDir()) // file-backed
	if mem != disk {
		t.Fatal("storage backend changed the chain contents")
	}
}

// TestSnapshotCadenceWritesAndPrunes drives an engine past several
// snapshot intervals with tiny segments and checks the cadence
// machinery end to end: snapshots land on disk, old segments are
// pruned, and the metrics counters move.
func TestSnapshotCadenceWritesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.ChainDir = dir
	cfg.SnapshotEvery = 2
	cfg.SegmentBytes = 1024

	e := newTestEngine(t, cfg)
	defer func() {
		if err := e.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	for r := 0; r < 6; r++ {
		submitRound(t, e, 8, r, 3)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < e.Governors(); j++ {
		fs, ok := e.Governor(j).Store().(*ledger.FileStore)
		if !ok {
			t.Fatalf("governor %d store is not file-backed", j)
		}
		snap, found := fs.LatestSnapshot()
		if !found {
			t.Fatalf("governor %d has no ledger snapshot after 6 rounds at cadence 2", j)
		}
		if snap.Height != 6 {
			t.Fatalf("governor %d snapshot height = %d, want 6", j, snap.Height)
		}
		st, err := node.DecodeGovernorState(snap.App)
		if err != nil {
			t.Fatalf("governor %d snapshot app state: %v", j, err)
		}
		if st.Round != 6 {
			t.Fatalf("governor %d snapshot round = %d, want 6", j, st.Round)
		}
		if fs.FirstAvailable() <= 1 {
			t.Fatalf("governor %d FirstAvailable() = %d, want pruning to have moved it", j, fs.FirstAvailable())
		}
		if err := ledger.VerifyChain(fs); err != nil {
			t.Fatalf("governor %d pruned chain fails verification: %v", j, err)
		}
	}
	ms := e.Metrics().Snapshot()
	if ms.Counters["ledger.snapshots_total"] == 0 {
		t.Fatal("ledger.snapshots_total did not move")
	}
	if ms.Counters["ledger.segments_pruned_total"] == 0 {
		t.Fatal("ledger.segments_pruned_total did not move")
	}
}

// TestRestartAfterPruningStillVerifies makes sure a restart over a
// pruned chain directory (blocks 1..H gone, snapshot anchor present)
// opens, verifies, and extends.
func TestRestartAfterPruningStillVerifies(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.ChainDir = dir
	cfg.SnapshotEvery = 2
	cfg.SegmentBytes = 512

	e1 := newTestEngine(t, cfg)
	for r := 0; r < 8; r++ {
		submitRound(t, e1, 8, r, 3)
		if _, err := e1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	pruned := false
	for j := 0; j < e1.Governors(); j++ {
		if fs, ok := e1.Governor(j).Store().(*ledger.FileStore); ok && fs.FirstAvailable() > 1 {
			pruned = true
		}
	}
	if !pruned {
		t.Fatal("no governor pruned anything at 512-byte segments over 8 rounds")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, cfg)
	defer func() {
		if err := e2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	for j := 0; j < e2.Governors(); j++ {
		store := e2.Governor(j).Store()
		if store.Height() != 8 {
			t.Fatalf("governor %d reloaded height %d, want 8", j, store.Height())
		}
		if err := ledger.VerifyChain(store); err != nil {
			t.Fatalf("governor %d pruned chain after restart: %v", j, err)
		}
	}
	submitRound(t, e2, 6, 9, 0)
	res, err := e2.RunRound()
	if err != nil {
		t.Fatalf("post-restart RunRound() error = %v", err)
	}
	if res.Serial != 9 {
		t.Fatalf("post-restart serial = %d, want 9", res.Serial)
	}
}

// TestReopenedReplicasAtDifferentHeightsAgree: a governor that lost the
// last block before the chain was closed reopens a block behind the
// others. Each governor counts rounds from its own height, so the
// reopened engine numbers rounds from the tallest replica and gives each
// governor its own clock offset: the short replica resyncs, and every
// governor elects in the same round and commits the same blocks.
func TestReopenedReplicasAtDifferentHeightsAgree(t *testing.T) {
	cfg := defaultConfig()
	cfg.ChainDir = t.TempDir()
	e1 := newTestEngine(t, cfg)
	short := e1.Roster().Governors[0].ID
	for r := 0; r < 3; r++ {
		if r == 2 {
			e1.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
				return m.Kind == network.KindBlock && to == short
			})
		}
		submitRound(t, e1, 6, r, 3)
		if _, err := e1.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, cfg)
	defer func() {
		if err := e2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	if h0, h1 := e2.Governor(0).Store().Height(), e2.Governor(1).Store().Height(); h0 != 2 || h1 != 3 || e2.Round() != 3 {
		t.Fatalf("reopened at heights %d and %d, round %d; want 2, 3 and round 3", h0, h1, e2.Round())
	}
	for r := 3; r < 6; r++ {
		submitRound(t, e2, 6, r, 3)
		res, err := e2.RunRound()
		if err != nil || res.Serial != uint64(r+1) {
			t.Fatalf("round %d after reopening: serial %d, %v", r+1, res.Serial, err)
		}
	}
	for j := 0; j < e2.Governors(); j++ {
		if s := e2.Governor(j).Store(); s.Height() != 6 || s.HeadHash() != e2.Governor(0).Store().HeadHash() {
			t.Fatalf("governor %d at height %d off the common chain", j, s.Height())
		}
	}
}
