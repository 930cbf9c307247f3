package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/network"
)

// faultHash is a tiny pure hash over a message's identity, so delay
// and drop decisions are functions of (message, recipient) only —
// deterministic at any GOMAXPROCS, exactly the discipline the bus
// hooks document.
func faultHash(m network.Message, to identity.NodeID, salt uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < 8; i++ {
		mix(byte(m.Seq >> (8 * i)))
		mix(byte(salt >> (8 * i)))
	}
	for i := 0; i < len(to); i++ {
		mix(to[i])
	}
	return h
}

// faultyTrace runs rounds of n transactions with a deterministic
// DelayFunc (spreads deliveries across [0, Δ]) and a deterministic
// DropFunc (loses ~5% of upload traffic) installed together, and
// records every per-round outcome. Rounds of at least fanOutFloor
// transactions must fan out.
func faultyTrace(t *testing.T, seed int64, procs, rounds, n int) roundTrace {
	t.Helper()
	cfg := defaultConfig()
	cfg.Seed = seed
	setProcs(t, procs)
	e := newTestEngine(t, cfg)
	e.Bus().SetDelayFunc(func(m network.Message, to identity.NodeID) int {
		return int(faultHash(m, to, 0x1111) % 3) // 0..Δ with Δ=2
	})
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindCollectorBatch && faultHash(m, to, 0x2222)%20 == 0
	})
	var tr roundTrace
	for r := 0; r < rounds; r++ {
		submitRound(t, e, n, r, 3)
		res, err := e.RunRound()
		checkFanOut(t, e, procs, n >= fanOutFloor)
		if err != nil {
			if errors.Is(err, ErrRoundAborted) {
				tr.hashes = append(tr.hashes, crypto.Hash{})
				tr.leaders = append(tr.leaders, -1)
				continue
			}
			t.Fatalf("seed %d GOMAXPROCS %d round %d: %v", seed, procs, r, err)
		}
		tr.hashes = append(tr.hashes, res.Hash)
		tr.leaders = append(tr.leaders, res.Leader)
	}
	tr.stakes = e.Stakes()
	for j := 0; j < e.Governors(); j++ {
		tr.snapshots = append(tr.snapshots, e.Governor(j).Table().Snapshot())
	}
	return tr
}

// TestParallelMatchesSequentialUnderFaults extends the determinism
// gate to the faulty path: with delay and drop hooks installed, the
// parallel pipeline must still be byte-identical to the sequential
// one — same commits, same leaders, same reputation state — both for
// rounds that step their nodes inline and for rounds that fan out.
func TestParallelMatchesSequentialUnderFaults(t *testing.T) {
	const rounds = 6
	for _, tc := range []struct {
		seed int64
		n    int
	}{{1, 12}, {7, 12}, {42, 12}, {1, fanOutFloor + 12}, {42, fanOutFloor + 12}} {
		seed := tc.seed
		name := fmt.Sprintf("seed=%d", seed)
		if tc.n >= fanOutFloor {
			name += "/" + shapeWide
		}
		t.Run(name, func(t *testing.T) {
			want := faultyTrace(t, seed, 1, rounds, tc.n)
			got := faultyTrace(t, seed, 4, rounds, tc.n)
			for r := range want.hashes {
				if got.hashes[r] != want.hashes[r] || got.leaders[r] != want.leaders[r] {
					t.Fatalf("GOMAXPROCS=4 round %d diverges under faults", r)
				}
			}
			for j := range want.snapshots {
				if !bytes.Equal(got.snapshots[j], want.snapshots[j]) {
					t.Fatalf("GOMAXPROCS=4 governor %d reputation diverges under faults", j)
				}
			}
		})
	}
}

// TestDropFuncDegradesUploads: dropped uploads shrink the reports a
// governor sees but never wedge the round.
func TestDropFuncDegradesUploads(t *testing.T) {
	cfg := defaultConfig()
	e := newTestEngine(t, cfg)
	gov0 := identity.NodeID("governor/0")
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindCollectorBatch && to == gov0
	})
	submitRound(t, e, 8, 0, 0)
	res, err := e.RunRound()
	if err != nil {
		t.Fatalf("round with all uploads to one governor dropped: %v", err)
	}
	if res.Serial != 1 {
		t.Fatalf("serial = %d, want 1", res.Serial)
	}
	if st := e.Bus().Stats(); st.Dropped == 0 {
		t.Fatal("drop hook never fired")
	}
}

// TestDelayFuncStressesDrainOrder: maximal skew (every message held
// the full Δ) must not change any commit relative to the zero-delay
// run — AdvancePastDelay waits out the bound either way.
func TestDelayFuncStressesDrainOrder(t *testing.T) {
	run := func(delay int) crypto.Hash {
		cfg := defaultConfig()
		e := newTestEngine(t, cfg)
		e.Bus().SetDelayFunc(func(m network.Message, to identity.NodeID) int { return delay })
		submitRound(t, e, 10, 0, 2)
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("delay %d: %v", delay, err)
		}
		return res.Hash
	}
	if run(0) != run(2) {
		t.Fatal("block hash depends on uniform delivery delay")
	}
}
