package core

import (
	"testing"

	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/node"
	"repchain/internal/tx"
)

// TestSoakHundredRounds is a long-run invariant check: 100 rounds with
// a mixed adversary population, block limits forcing carryover, stake
// transfers every few rounds, and every safety invariant re-verified
// at the end. It is the closest thing to a production burn-in the
// in-process stack has.
func TestSoakHundredRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak run")
	}
	cfg := Config{
		Spec:        identity.TopologySpec{Providers: 6, Collectors: 6, Degree: 3},
		Governors:   4,
		Stakes:      []uint64{4, 3, 2, 1},
		Params:      defaultConfig().Params,
		BlockLimit:  24,
		ArgueWindow: 32,
		MaxDelay:    2,
		Seed:        777,
		Validator:   oracleValidator,
		Behaviors: []node.Behavior{
			nil,
			node.ProbBehavior{Misreport: 0.3},
			node.ProbBehavior{Conceal: 0.4},
			node.ProbBehavior{Forge: 0.2},
			node.ProbBehavior{Misreport: 0.1, Conceal: 0.1},
			nil,
		},
	}
	cfg.Params.F = 0.7
	e := newTestEngine(t, cfg)

	const rounds = 100
	submitted := make(map[string]bool)
	leaders := make(map[int]int)
	for r := 0; r < rounds; r++ {
		for id := range submitRound(t, e, 18, r, 3) {
			submitted[id.String()] = true
		}
		if r%5 == 2 {
			from := r % 4
			to := (r + 1) % 4
			if e.Stakes()[from] > 0 {
				if err := e.SubmitStakeTransfer(from, to, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		leaders[res.Leader]++
	}
	// Drain argues.
	for r := 0; r < 10; r++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}

	// Invariants.
	for j := 0; j < e.Governors(); j++ {
		if err := ledger.VerifyChain(e.Governor(j).Store()); err != nil {
			t.Fatalf("governor %d chain: %v", j, err)
		}
	}
	// Agreement.
	ref := e.Governor(0).Store()
	for j := 1; j < e.Governors(); j++ {
		other := e.Governor(j).Store()
		if other.Height() != ref.Height() {
			t.Fatalf("heights diverged: %d vs %d", other.Height(), ref.Height())
		}
	}
	// Almost No Creation + no duplicate valid records, chain-wide.
	seenValid := make(map[string]bool)
	for s := uint64(1); s <= ref.Height(); s++ {
		b, err := ref.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Records) > cfg.BlockLimit {
			t.Fatalf("block %d exceeds b_limit: %d records", s, len(b.Records))
		}
		for _, rec := range b.Records {
			id := rec.Signed.ID().String()
			if !submitted[id] {
				t.Fatalf("block %d contains unsubmitted transaction", s)
			}
			if rec.Status == tx.StatusValid {
				if seenValid[id] {
					t.Fatalf("transaction %s recorded valid twice", id[:8])
				}
				seenValid[id] = true
			}
		}
	}
	// Validity: every provider's valid transactions settled.
	for k := 0; k < 6; k++ {
		if pending := e.Provider(k).PendingValid(); pending != 0 {
			t.Fatalf("provider %d has %d valid transactions unsettled after soak", k, pending)
		}
	}
	// Stake conservation.
	var total uint64
	for _, s := range e.Stakes() {
		total += s
	}
	if total != 10 {
		t.Fatalf("stake total = %d, want 10", total)
	}
	// Leadership rotated (4 governors, stake-weighted).
	if len(leaders) < 2 {
		t.Fatalf("leadership never rotated: %v", leaders)
	}
	// The forger was punished; honest collectors out-earn adversaries.
	tab := e.Governor(0).Table()
	if tab.Forge(3) >= 0 {
		t.Fatal("forger's forge score not negative after soak")
	}
	shares, err := tab.RevenueShares()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{1, 2, 3} {
		if shares[bad] >= shares[0] {
			t.Fatalf("adversary %d share %.4f ≥ honest share %.4f", bad, shares[bad], shares[0])
		}
	}
}
