package node

import (
	"errors"
	"testing"

	"repchain/internal/ledger"
	"repchain/internal/tx"
)

// TestGovernorCountsSilentReports gives collector 1 a conceal-everything
// behavior, so every transaction reaches the governor with exactly one
// of its two linked collectors reporting.
func TestGovernorCountsSilentReports(t *testing.T) {
	fx := newFixture(t, []Behavior{HonestBehavior{}, ProbBehavior{Conceal: 1}})
	for i := 0; i < 3; i++ {
		fx.runUpload(t, 0, true)
	}
	if _, err := fx.governor.screenRound(); err != nil {
		t.Fatal(err)
	}
	st := fx.governor.Stats()
	if st.SilentReports != 3 {
		t.Fatalf("SilentReports = %d, want 3 (one silent collector × 3 txs)", st.SilentReports)
	}
	// Silence is not misreporting: the silent collector's misreport
	// score must be untouched.
	if got := fx.governor.Table().Misreport(1); got != 0 {
		t.Fatalf("silent collector misreport score = %v, want 0", got)
	}
}

// TestSilenceDecayOffByDefault: the update rule touches only the
// collectors that reported, so a silent collector keeps its weight
// even on a checked transaction.
func TestSilenceDecayOffByDefault(t *testing.T) {
	fx := newFixture(t, []Behavior{HonestBehavior{}, ProbBehavior{Conceal: 1}})
	fx.runUpload(t, 0, true)
	if _, err := fx.governor.screenRound(); err != nil {
		t.Fatal(err)
	}
	w, err := fx.governor.Table().Weight(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Fatalf("silent collector weight = %v, want 1", w)
	}
}

func TestAcceptBlockIdempotentOnRedelivery(t *testing.T) {
	fx := newFixture(t, nil)
	gov := fx.governor
	govMem := fx.roster.Governors[0]
	blk, err := ledger.NewBlock(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	blk.SignAs(govMem.ID, govMem.PrivateKey)
	if err := gov.AcceptBlock(blk.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	// A duplicated delivery of the committed block is a no-op.
	if err := gov.AcceptBlock(blk.EncodeBytes()); err != nil {
		t.Fatalf("redelivered block error = %v, want idempotent accept", err)
	}
	if h := gov.Store().Height(); h != 1 {
		t.Fatalf("height = %d after redelivery, want 1", h)
	}
	// A different block at the committed serial is a fork.
	signed, err := fx.providers[0].Submit("test", []byte{1}, true, 0, fx.bus)
	if err != nil {
		t.Fatal(err)
	}
	rec := ledger.Record{Signed: signed, Label: tx.LabelValid, Status: tx.StatusValid}
	fork, err := ledger.NewBlock(nil, []ledger.Record{rec}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fork.SignAs(govMem.ID, govMem.PrivateKey)
	if err := gov.AcceptBlock(fork.EncodeBytes()); !errors.Is(err, ErrFork) {
		t.Fatalf("conflicting block error = %v, want ErrFork", err)
	}
}
