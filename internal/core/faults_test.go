package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/tx"
)

// equivocationForTest produces the encoding of one upload batch in
// which the collector signs both labels for the same transaction.
func equivocationForTest(signed tx.SignedTx, coll identity.Member) ([]byte, error) {
	return tx.SignUploadBatch(coll.ID, 1, []tx.UploadItem{
		{Signed: signed, Label: tx.LabelValid},
		{Signed: signed, Label: tx.LabelInvalid},
	}, coll.PrivateKey)
}

// TestIrregularTopology runs the engine over an explicit non-regular
// provider–collector graph (§3.1: "the model can be easily extended to
// general cases"): provider degrees 3, 1, 2, 1 over 3 collectors.
func TestIrregularTopology(t *testing.T) {
	cfg := defaultConfig()
	cfg.Spec = identity.TopologySpec{Providers: 4, Collectors: 3}
	cfg.Links = [][]int{
		{0, 1, 2}, // provider 0 fans out to everyone
		{1},       // provider 1 has a single collector
		{0, 2},
		{2},
	}
	e := newTestEngine(t, cfg)
	for r := 0; r < 5; r++ {
		submitRound(t, e, 8, r, 4)
		if _, err := e.RunRound(); err != nil {
			t.Fatalf("RunRound(%d) error = %v", r, err)
		}
	}
	if err := ledger.VerifyChain(e.Governor(0).Store()); err != nil {
		t.Fatal(err)
	}
	// The single-collector provider's transactions still commit.
	if e.Provider(1).SettledValid() == 0 {
		t.Fatal("single-collector provider never settled a transaction")
	}
	// Reputation vectors have per-provider lengths matching degrees:
	// collector 2 oversees providers 0, 2, 3 → vector length 3+2.
	vec, err := e.Governor(0).Table().Vector(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 5 {
		t.Fatalf("collector 2 vector length = %d, want 5", len(vec))
	}
}

// TestLossyUploadsToOneGovernor drops 30% of collector uploads to one
// non-leader governor. The paper's synchrony assumption is violated
// for that replica's inputs, yet Agreement must hold: the chain
// records the leader's screening, and every replica still adopts
// identical blocks.
func TestLossyUploadsToOneGovernor(t *testing.T) {
	cfg := defaultConfig()
	e := newTestEngine(t, cfg)
	drop := 0
	victim := e.Roster().Governors[2].ID
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		if m.Kind == network.KindCollectorBatch && to == victim {
			drop++
			return drop%3 == 0
		}
		return false
	})
	for r := 0; r < 6; r++ {
		submitRound(t, e, 10, r, 4)
		if _, err := e.RunRound(); err != nil {
			t.Fatalf("RunRound(%d) error = %v", r, err)
		}
	}
	// Agreement across replicas despite the victim's partial view.
	ref := e.Governor(0).Store()
	for j := 1; j < e.Governors(); j++ {
		if e.Governor(j).Store().Height() != ref.Height() {
			t.Fatalf("governor %d fell behind", j)
		}
		for s := uint64(1); s <= ref.Height(); s++ {
			a, err := ref.Get(s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.Governor(j).Store().Get(s)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hash() != b.Hash() {
				t.Fatalf("Agreement violated at serial %d under lossy uploads", s)
			}
		}
	}
	if drop == 0 {
		t.Fatal("drop hook never fired; test is vacuous")
	}
}

// TestDelayedNetworkWithinBound runs with per-message delays up to the
// synchrony bound Δ; the round structure must absorb them.
func TestDelayedNetworkWithinBound(t *testing.T) {
	cfg := defaultConfig()
	cfg.MaxDelay = 3
	e := newTestEngine(t, cfg)
	tick := 0
	e.Bus().SetDelayFunc(func(m network.Message, to identity.NodeID) int {
		tick++
		return tick % (cfg.MaxDelay + 1) // delays 0..Δ
	})
	for r := 0; r < 5; r++ {
		submitRound(t, e, 8, r, 4)
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("RunRound(%d) error = %v", r, err)
		}
		if res.Serial != uint64(r+1) {
			t.Fatalf("serial %d at round %d", res.Serial, r)
		}
	}
	for j := 0; j < e.Governors(); j++ {
		if err := ledger.VerifyChain(e.Governor(j).Store()); err != nil {
			t.Fatalf("governor %d: %v", j, err)
		}
	}
	// All uploads eventually landed: governor 0 saw every report.
	if e.Governor(0).Stats().ReportsReceived == 0 {
		t.Fatal("no reports arrived under delay")
	}
}

// TestNoDuplicateValidRecords scans the full chain after heavy argue
// traffic: no transaction may be recorded valid more than once, even
// though several governors hold the same argue re-validation pending.
func TestNoDuplicateValidRecords(t *testing.T) {
	cfg := defaultConfig()
	cfg.Params.F = 0.9
	cfg.Behaviors = []node.Behavior{
		node.ProbBehavior{Misreport: 1},
		node.ProbBehavior{Misreport: 1},
		node.ProbBehavior{Misreport: 1},
		nil,
	}
	e := newTestEngine(t, cfg)
	for r := 0; r < 6; r++ {
		submitRound(t, e, 12, r, 0)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 8; r++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Governor(0).Stats().ArguesAccepted == 0 {
		t.Fatal("no argues accepted; duplicate-inclusion path not exercised")
	}
	store := e.Governor(0).Store()
	seenValid := make(map[string]uint64)
	for s := uint64(1); s <= store.Height(); s++ {
		b, err := store.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range b.Records {
			if rec.Status != tx.StatusValid {
				continue
			}
			id := rec.Signed.ID().String()
			if prev, dup := seenValid[id]; dup {
				t.Fatalf("transaction %s recorded valid in blocks %d and %d", id[:8], prev, s)
			}
			seenValid[id] = s
		}
	}
	if len(seenValid) == 0 {
		t.Fatal("no valid records at all")
	}
}

// TestForeignKeyCollectorRejected: from round 2 collector 0 signs its
// upload batches with a key outside the roster. Every such batch is
// refused (batch_sig) and penalized, while the rest of the alliance
// keeps committing blocks.
func TestForeignKeyCollectorRejected(t *testing.T) {
	cfg := defaultConfig()
	e := newTestEngine(t, cfg)
	for r := 0; r < 2; r++ {
		submitRound(t, e, 8, r, 0)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Governor(0).Stats().ForgeriesDetected
	_, foreign, err := crypto.KeyFromSeed(bytes.Repeat([]byte{0xF0}, crypto.SeedSize))
	if err != nil {
		t.Fatal(err)
	}
	rogue := e.Roster().Collectors[0]
	rogue.PrivateKey = foreign
	e.collectors[0] = node.NewCollector(rogue, e.collectors[0].Endpoint(), e.Roster(), cfg.Validator, nil, 1)
	for r := 2; r < 4; r++ {
		submitRound(t, e, 8, r, 0)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// The collector kept uploading; every upload was rejected.
	if after := e.Governor(0).Stats().ForgeriesDetected; after <= before {
		t.Fatal("foreign-key collector's uploads were not rejected")
	}
	if got := e.reg.CounterVec("node.uploads_rejected_total", "reason").With("batch_sig").Value(); got == 0 {
		t.Fatal("no upload refused as batch_sig")
	}
	// Chain still advances and verifies.
	if e.Governor(0).Store().Height() != 4 {
		t.Fatalf("height = %d", e.Governor(0).Store().Height())
	}
	if err := ledger.VerifyChain(e.Governor(0).Store()); err != nil {
		t.Fatal(err)
	}
	// No transaction may carry only the refused collector's voice: all
	// committed valid transactions survived through the remaining
	// collectors.
	for k := 0; k < e.Roster().Topology.Providers(); k++ {
		if pending := e.Provider(k).PendingValid(); pending > 0 {
			// Providers linked solely to the refused collector can
			// legitimately stall; the default topology links each
			// provider to 2 collectors, so nothing should stall here.
			t.Fatalf("provider %d stalled behind the refused collector", k)
		}
	}
}

// TestUnlinkedProviderCannotFrameCollector: a validly signed transaction
// sent by a provider to a collector it is not linked with must not reach
// the governors, who would charge that honest collector Algorithm 3's
// forge penalty for uploading it. The collector discards it.
func TestUnlinkedProviderCannotFrameCollector(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	prov := e.Roster().Providers[0]
	victim := e.Roster().Collectors[2]
	if e.Roster().Linked(prov.Index, victim.Index) {
		t.Fatal("fixture: provider 0 is linked with collector 2")
	}
	signed := tx.Sign(tx.Transaction{Provider: prov.ID, Seq: 1, Kind: "frame", Payload: payloadFor(true, 1)}, prov.PrivateKey)
	if err := e.Bus().Multicast(prov.ID, []identity.NodeID{victim.ID}, network.KindProviderTx, signed.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < e.Governors(); j++ {
		if got := e.Governor(j).Stats().ForgeriesDetected; got != 0 {
			t.Errorf("governor %d detected %d forgeries by honest collector 2", j, got)
		}
	}
	if got := e.collectors[victim.Index].Stats().Discarded; got != 1 {
		t.Fatalf("collector 2 discarded %d transactions, want 1", got)
	}
}

// TestInsufficientStakeTransferSurfaces: a transfer exceeding the
// payer's balance is refused at submission, not by a failed round, and
// leaves the stakes untouched.
func TestInsufficientStakeTransferSurfaces(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{1, 1, 1}
	e := newTestEngine(t, cfg)
	if err := e.SubmitStakeTransfer(0, 1, 50); !errors.Is(err, consensus.ErrInsufficientStake) {
		t.Fatalf("overdraft submission error = %v, want ErrInsufficientStake", err)
	}
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	for j, s := range e.Stakes() {
		if s != 1 {
			t.Fatalf("governor %d stake = %d after refused transfer", j, s)
		}
	}
}

// TestStakeTransferWaitsForDownGovernor: the stake block needs every
// governor's signature, so a transfer submitted while one is down waits
// without failing the round, and commits exactly once in the first
// round after the restart.
func TestStakeTransferWaitsForDownGovernor(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{3, 3, 0} // governor 2 never leads, but must sign
	e := newTestEngine(t, cfg)
	if err := e.CrashGovernor(2); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitStakeTransfer(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		submitRound(t, e, 4, r, 0)
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("round with governor 2 down: %v", err)
		}
		if res.StakeBlock != nil || fmt.Sprint(e.Stakes()) != "[3 3 0]" {
			t.Fatalf("stakes moved to %v without governor 2", e.Stakes())
		}
	}
	if err := e.RestartGovernor(2); err != nil {
		t.Fatal(err)
	}
	for r := 2; r < 5; r++ {
		submitRound(t, e, 4, r, 0)
		res, err := e.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if (res.StakeBlock != nil) != (r == 2) {
			t.Fatalf("round %d stake block %v, want one in the first round after the restart only", res.Serial, res.StakeBlock)
		}
	}
	if got := fmt.Sprint(e.Stakes()); got != "[1 5 0]" {
		t.Fatalf("stakes %s, want [1 5 0]", got)
	}
}

// TestStakeBlockDropResyncs: a governor that loses its copy of the stake
// block is a block behind until the next round's resync hands it over.
func TestStakeBlockDropResyncs(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{3, 3, 3}
	e := newTestEngine(t, cfg)
	victim := e.Roster().Governors[1].ID
	e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindStakeBlock && to == victim
	})
	if err := e.SubmitStakeTransfer(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	res, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.StakeBlock == nil || e.governors[1].StakeBlock() != nil {
		t.Fatalf("stake block %v, governor 1 holds %v: want it committed and governor 1 without it", res.StakeBlock, e.governors[1].StakeBlock())
	}
	e.Bus().SetDropFunc(nil)
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	for j, r := range e.governors {
		if got := fmt.Sprint(r.Stakes()); got != "[2 3 4]" {
			t.Fatalf("governor %d stakes %s after resync, want [2 3 4]", j, got)
		}
	}
}

// TestEvidenceLossResyncs: a governor that lost the evidence expelling a
// lying leader — every copy dropped, or down while it went out — is
// handed it by the next round's resync, so the round runs on one stake
// vector and the transfer still commits.
func TestEvidenceLossResyncs(t *testing.T) {
	for _, down := range []bool{false, true} {
		t.Run(fmt.Sprint("down=", down), func(t *testing.T) {
			cfg := defaultConfig()
			cfg.Stakes = []uint64{4, 4, 4}
			start := func(victim int) *Engine {
				e := newTestEngine(t, cfg)
				if down {
					if err := e.CrashGovernor(victim); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			// Rounds are deterministic: a dry run names round 1's leader.
			victim := 0
			dry := start(victim)
			submitRound(t, dry, 5, 0, 0)
			first, err := dry.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			liar := first.Leader
			if !down {
				victim = (liar + 1) % 3
			}
			payer := 3 - liar - victim

			e := start(victim)
			e.governors[liar].CorruptNextStakeProposal()
			if err := e.SubmitStakeTransfer(payer, victim, 1); err != nil {
				t.Fatal(err)
			}
			victimID := e.Roster().Governors[victim].ID
			e.Bus().SetDropFunc(func(m network.Message, to identity.NodeID) bool {
				return m.Kind == network.KindEvidence && to == victimID
			})
			submitRound(t, e, 5, 0, 0)
			if res, err := e.RunRound(); err != nil || res.Leader != liar {
				t.Fatalf("round 1 led by %d (want %d): %v", res.Leader, liar, err)
			}
			if e.governors[victim].Expulsion(liar) != nil || e.governors[payer].Expulsion(liar) == nil {
				t.Fatalf("governor %d should lack the evidence governor %d holds", victim, payer)
			}
			e.Bus().SetDropFunc(nil)
			if down {
				if err := e.RestartGovernor(victim); err != nil {
					t.Fatal(err)
				}
			}
			submitRound(t, e, 4, 1, 0)
			res, err := e.RunRound()
			if err != nil {
				t.Fatalf("round after the loss: %v", err)
			}
			// A governor down when the transfer went out never filed it, so
			// only with none down is the next leader sure to propose it.
			want := []uint64{4, 4, 4}
			want[payer]--
			want[victim]++
			if !down && (res.StakeBlock == nil || !slices.Equal(res.StakeBlock.NewState, want)) {
				t.Fatalf("round 2 stake block %v, want NEW_STATE %v", res.StakeBlock, want)
			}
			for j, r := range e.governors {
				if r.Expulsion(liar) == nil {
					t.Fatalf("governor %d has not expelled governor %d", j, liar)
				}
			}
		})
	}
}

// TestEquivocatingCollectorPenalizedOnChain drives a collector that
// double-signs conflicting labels through the full protocol and
// checks the forge penalty lands.
func TestEquivocatingCollectorPenalizedOnChain(t *testing.T) {
	cfg := defaultConfig()
	e := newTestEngine(t, cfg)
	// Submit one transaction and build the envelope its drain signs (a
	// batch of one: deterministic Ed25519 gives the same bytes), then an
	// equivocating label pair on it from collector 0.
	staged, err := e.SubmitTx(0, "equiv", []byte{1, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	signed := tx.Sign(staged, e.Roster().Providers[0].PrivateKey)
	collMem := e.Roster().Collectors[0]
	govIDs := make([]identity.NodeID, e.Governors())
	for j := range govIDs {
		govIDs[j] = e.Roster().Governors[j].ID
	}
	// The collector is linked with provider 0? Ensure linkage first.
	if !e.Roster().Linked(0, collMem.Index) {
		t.Skip("collector 0 not linked with provider 0 in this topology")
	}
	batch, err := equivocationForTest(signed, collMem)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bus().Multicast(collMem.ID, govIDs, network.KindCollectorBatch, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
	if got := e.Governor(0).Table().Forge(0); got >= 0 {
		t.Fatalf("equivocator's forge score = %v, want negative", got)
	}
}
