package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/network"
	"repchain/internal/node"
)

// roundTrace captures everything observable about one run that could
// diverge under a schedule-dependent bug: per-round block hashes and
// leaders, the final stake vector, and every governor's full reputation
// snapshot.
type roundTrace struct {
	hashes    []crypto.Hash
	leaders   []int
	stakes    []uint64
	snapshots [][]byte
}

// batchFor builds a round's n-transaction batch, every third invalid.
func batchFor(round, n int) []node.Submission {
	items := make([]node.Submission, n)
	for i := range items {
		valid := i%3 != 2
		items[i] = node.Submission{Kind: "test/batch", Payload: payloadFor(valid, round*1000+500+i), Valid: valid}
	}
	return items
}

// Trace shapes. The mixed shape submits a round one transaction at a
// time over the providers plus one 24-transaction batch; the one-by-one
// shape submits 36 transactions one at a time under a block limit of
// 20, so every drain signs several providers' shares concurrently and
// the limit splits one of them. Both drain fewer than fanOutFloor
// transactions, so their rounds step every node inline; the wide shape
// submits fanOutFloor+12 one at a time, so at GOMAXPROCS 4 its rounds
// fan out.
const (
	shapeMixed    = "mixed"
	shapeOneByOne = "one-by-one"
	shapeWide     = "wide"
)

// runTrace executes `rounds` rounds of the given shape with mixed
// valid/invalid traffic and one stake transfer, under the given seed
// and GOMAXPROCS, and fails unless the rounds fan out exactly when
// they should.
func runTrace(t *testing.T, seed int64, procs, rounds int, shape string) roundTrace {
	t.Helper()
	cfg := defaultConfig()
	cfg.Seed = seed
	if shape == shapeOneByOne {
		cfg.BlockLimit = 20
	}
	setProcs(t, procs)
	cfg.Stakes = []uint64{3, 2, 1}
	// Event log on: the determinism gate must hold with the ring
	// recording, proving instrumentation is purely observational.
	cfg.EventCapacity = 4096
	e := newTestEngine(t, cfg)
	var tr roundTrace
	for r := 0; r < rounds; r++ {
		switch shape {
		case shapeOneByOne:
			submitRound(t, e, 36, r, 3)
		case shapeWide:
			submitRound(t, e, fanOutFloor+12, r, 3)
		default:
			submitRound(t, e, 12, r, 3)
			// One provider batch of 24 under one signature, which each
			// node that meets it checks once.
			if _, err := e.SubmitBatch(context.Background(), r%4, batchFor(r, 24)); err != nil {
				t.Fatal(err)
			}
		}
		if r == 1 {
			if err := e.SubmitStakeTransfer(0, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("seed %d GOMAXPROCS %d round %d: %v", seed, procs, r, err)
		}
		checkFanOut(t, e, procs, shape == shapeWide)
		tr.hashes = append(tr.hashes, res.Hash)
		tr.leaders = append(tr.leaders, res.Leader)
	}
	tr.stakes = e.Stakes()
	for j := 0; j < e.Governors(); j++ {
		tr.snapshots = append(tr.snapshots, e.Governor(j).Table().Snapshot())
	}
	return tr
}

// checkFanOut fails unless the round just run stepped each ready node
// on its own goroutine when wide at GOMAXPROCS above 1, and every node
// inline otherwise.
func checkFanOut(t *testing.T, e *Engine, procs int, wide bool) {
	t.Helper()
	n := len(e.members)
	want := 1
	if wide && procs > 1 {
		want = n
	}
	if got := e.workers(n); got != want {
		t.Fatalf("round drained %d tx at GOMAXPROCS %d and stepped %d ready nodes on %d goroutines, want %d", e.drained, procs, n, got, want)
	}
}

// TestParallelMatchesSequential is the tentpole's determinism gate: the
// pipeline must be byte-identical at GOMAXPROCS 1 and 4. Block hashes
// transitively commit to screening decisions and records; leaders to
// the VRF election; reputation snapshots to every weight update. The
// wide shape is the one whose node steps run concurrently.
func TestParallelMatchesSequential(t *testing.T) {
	const rounds = 5
	for _, tc := range []struct {
		seed  int64
		shape string
	}{{1, shapeMixed}, {7, shapeMixed}, {42, shapeMixed}, {1, shapeOneByOne}, {42, shapeOneByOne}, {1, shapeWide}, {42, shapeWide}} {
		seed := tc.seed
		name := fmt.Sprintf("seed=%d", seed)
		if tc.shape != shapeMixed {
			name += "/" + tc.shape
		}
		t.Run(name, func(t *testing.T) {
			want := runTrace(t, seed, 1, rounds, tc.shape)
			got := runTrace(t, seed, 4, rounds, tc.shape)
			for r := range want.hashes {
				if got.hashes[r] != want.hashes[r] {
					t.Fatalf("GOMAXPROCS=4 round %d block hash %s, sequential %s",
						r, got.hashes[r].Short(), want.hashes[r].Short())
				}
				if got.leaders[r] != want.leaders[r] {
					t.Fatalf("GOMAXPROCS=4 round %d leader %d, sequential %d",
						r, got.leaders[r], want.leaders[r])
				}
			}
			for j := range want.stakes {
				if got.stakes[j] != want.stakes[j] {
					t.Fatalf("GOMAXPROCS=4 stakes %v, sequential %v", got.stakes, want.stakes)
				}
			}
			for j := range want.snapshots {
				if !bytes.Equal(got.snapshots[j], want.snapshots[j]) {
					t.Fatalf("GOMAXPROCS=4 governor %d reputation snapshot diverged from sequential", j)
				}
			}
		})
	}
}

// TestFanOutWorkers pins the fan-out rule: a round whose drain took
// fewer than fanOutFloor transactions, or any round at GOMAXPROCS 1,
// steps every node on the engine goroutine; otherwise a pass runs each
// ready node on its own goroutine, however few cores there are —
// whatever was submitted, since a block limit caps the drain. It then
// holds every step of a wide pass until all have started, which only
// one goroutine per node gets through.
func TestFanOutWorkers(t *testing.T) {
	const ready = 7
	for _, tc := range []struct {
		procs, submitted, limit int
		inline                  bool
	}{
		{4, 0, 0, true},
		{4, fanOutFloor - 1, 0, true},
		{4, fanOutFloor, 0, false},
		{2, 3 * fanOutFloor, 0, false},
		{4, fanOutFloor + 10, fanOutFloor - 1, true},
		{1, 3 * fanOutFloor, 0, true},
	} {
		setProcs(t, tc.procs)
		cfg := defaultConfig()
		cfg.BlockLimit = tc.limit
		e := newTestEngine(t, cfg)
		submitRound(t, e, tc.submitted, 0, 3)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
		want := ready
		if tc.inline {
			want = 1
		}
		if got := e.workers(ready); got != want {
			t.Fatalf("%d submitted under block limit %d at GOMAXPROCS %d: %d goroutines for %d ready nodes, want %d",
				tc.submitted, tc.limit, tc.procs, got, ready, want)
		}
		if tc.inline {
			continue
		}
		var started sync.WaitGroup
		started.Add(ready)
		all := make(chan struct{})
		go func() { started.Wait(); close(all) }()
		err := e.fanOut(ready, func(int, node.Sender) error {
			started.Done()
			select {
			case <-all:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("a step waited 10 s for the other %d to start", ready-1)
			}
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", tc.procs, err)
		}
	}
}

// TestFanOutPastGOMAXPROCS runs wide rounds whose passes hold more ready
// nodes than GOMAXPROCS — 8 providers, then 8 collectors and 3
// governors — against the inline run at GOMAXPROCS 1: heads, reputation
// snapshots, governor stats and every node's event stream must match
// at GOMAXPROCS 2 and 4.
func TestFanOutPastGOMAXPROCS(t *testing.T) {
	type run struct {
		heads     []crypto.Hash
		snapshots [][]byte
		stats     []node.GovernorStats
		streams   map[string][]string
	}
	trace := func(procs int) run {
		setProcs(t, procs)
		cfg := defaultConfig()
		cfg.Spec = identity.TopologySpec{Providers: 8, Collectors: 8, Degree: 2}
		cfg.EventCapacity = 1 << 16
		e := newTestEngine(t, cfg)
		r := run{streams: map[string][]string{}}
		for round := 0; round < 4; round++ {
			submitRound(t, e, fanOutFloor+12, round, 3)
			res, err := e.RunRound()
			if err != nil {
				t.Fatalf("GOMAXPROCS %d round %d: %v", procs, round, err)
			}
			checkFanOut(t, e, procs, true)
			r.heads = append(r.heads, res.Hash)
		}
		for j := 0; j < e.Governors(); j++ {
			r.snapshots = append(r.snapshots, e.Governor(j).Table().Snapshot())
			r.stats = append(r.stats, e.Governor(j).Stats())
		}
		if e.Events().Dropped() != 0 {
			t.Fatalf("event ring dropped %d events", e.Events().Dropped())
		}
		for _, ev := range e.Events().Events() {
			ev.Seq, ev.Wall = 0, 0
			r.streams[ev.Node] = append(r.streams[ev.Node], fmt.Sprint(ev))
		}
		return r
	}
	want := trace(1)
	for _, procs := range []int{2, 4} {
		got := trace(procs)
		if !slices.Equal(got.heads, want.heads) {
			t.Fatalf("GOMAXPROCS %d heads %v, inline %v", procs, got.heads, want.heads)
		}
		for j := range want.snapshots {
			if !bytes.Equal(got.snapshots[j], want.snapshots[j]) || got.stats[j] != want.stats[j] {
				t.Fatalf("GOMAXPROCS %d governor %d: stats %+v, inline %+v, or its reputation diverged", procs, j, got.stats[j], want.stats[j])
			}
		}
		if len(got.streams) != len(want.streams) {
			t.Fatalf("GOMAXPROCS %d: events from %d nodes, inline %d", procs, len(got.streams), len(want.streams))
		}
		for id, stream := range want.streams {
			if !slices.Equal(got.streams[id], stream) {
				t.Fatalf("GOMAXPROCS %d: %s's event stream diverged from the inline run's", procs, id)
			}
		}
	}
}

// setProcs runs the rest of the test at GOMAXPROCS n — the one
// concurrency setting the round fan-outs read — and restores the
// previous value when the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestStakeNoncesSurviveRounds pins the nonce-reuse fix: identical
// transfers issued in different rounds must sign distinct bytes.
func TestStakeNoncesSurviveRounds(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{6, 1, 1}
	e := newTestEngine(t, cfg)
	var sent []consensus.StakeTx
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		if m.Kind == network.KindStakeTx && to == e.Roster().Governors[0].ID {
			stx, err := consensus.DecodeStakeTx(m.Payload)
			if err != nil {
				t.Error(err)
			}
			sent = append(sent, stx)
		}
		return false
	})
	var nonces []uint64
	var sigs [][]byte
	for r := 0; r < 3; r++ {
		if err := e.SubmitStakeTransfer(0, 1, 1); err != nil {
			t.Fatal(err)
		}
		stx := sent[len(sent)-1]
		nonces = append(nonces, stx.Nonce)
		sigs = append(sigs, stx.Sig)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(nonces); i++ {
		if nonces[i] == nonces[0] {
			t.Fatalf("nonce %d of round %d repeats round 0's: replayable transfer", nonces[i], i)
		}
		if bytes.Equal(sigs[i], sigs[0]) {
			t.Fatalf("round %d transfer signs the same bytes as round 0", i)
		}
	}
}
