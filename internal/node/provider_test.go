package node

import (
	"testing"

	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// TestSignBatchMatchesSign pins the batch path to the per-transaction
// one: same Seq run, same IDs, same pending ground truth and the same
// tx.signed events in the same order. The batch is signed once: every
// envelope shares one batch and verifies under the provider's key.
func TestSignBatchMatchesSign(t *testing.T) {
	const n = 32
	items := make([]Submission, n)
	for i := range items {
		valid := i%3 != 2
		items[i] = Submission{Kind: "k", Payload: []byte{0, byte(i)}, Valid: valid}
		if valid {
			items[i].Payload[0] = 1
		}
	}
	one, batch := newFixture(t, nil).providers[0], newFixture(t, nil).providers[0]
	logOne, logBatch := events.NewLog(2*n), events.NewLog(2*n)
	one.SetEvents(logOne)
	batch.SetEvents(logBatch)

	// A first signature each, so the batch does not start at Seq 1.
	one.Sign("warm", []byte{1}, true, 5)
	batch.Sign("warm", []byte{1}, true, 5)
	var want []tx.SignedTx
	for _, it := range items {
		want = append(want, one.Sign(it.Kind, it.Payload, it.Valid, 9))
	}
	got := batch.SignBatch(items, 9)
	if len(got) != n {
		t.Fatalf("SignBatch returned %d transactions, want %d", len(got), n)
	}
	for i := range want {
		if got[i].Tx.Seq != want[i].Tx.Seq || got[i].Tx.Seq != uint64(i+2) {
			t.Fatalf("item %d seq %d, per-tx path %d", i, got[i].Tx.Seq, want[i].Tx.Seq)
		}
		if got[i].ID() != want[i].ID() || got[i].Batch != got[0].Batch || got[i].Index != i {
			t.Fatalf("item %d differs from the per-tx path", i)
		}
		if err := got[i].VerifyProvider(batch.member.PublicKey); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if one.PendingValid() != batch.PendingValid() || len(one.pending) != len(batch.pending) {
		t.Fatalf("pending %d/%d valid %d/%d", len(batch.pending), len(one.pending), batch.PendingValid(), one.PendingValid())
	}
	a, b := logOne.Events(), logBatch.Events()
	if len(a) != n+1 || len(b) != n+1 {
		t.Fatalf("sign events %d/%d, want %d", len(b), len(a), n+1)
	}
	for i := range a {
		if a[i].Trace != b[i].Trace || a[i].Type != b[i].Type {
			t.Fatalf("event %d: batch %s/%s, per-tx %s/%s", i, b[i].Type, b[i].Trace, a[i].Type, a[i].Trace)
		}
	}
}

// countingSender counts multicasts and drops them.
type countingSender struct{ n int }

func (s *countingSender) Multicast(identity.NodeID, []identity.NodeID, string, []byte) error {
	s.n++
	return nil
}

// TestProviderStateBounded pins the unbounded-state fix: every
// submitted transaction — valid, invalid-and-recorded, and argued then
// vindicated — leaves nothing behind once a block settles it.
func TestProviderStateBounded(t *testing.T) {
	const total, perBlock = 10_000, 500
	prov := newFixture(t, nil).providers[0]
	sink := &countingSender{}
	var prev *ledger.Block
	commit := func(recs []ledger.Record) {
		t.Helper()
		blk, err := ledger.NewBlock(prev, recs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prov.ObserveBlock(blk, sink); err != nil {
			t.Fatal(err)
		}
		prev = &blk
	}
	for done := 0; done < total; done += perBlock {
		items := make([]Submission, perBlock)
		for i := range items {
			items[i] = Submission{Kind: "k", Payload: []byte{byte(i % 3), byte(i), byte(i >> 8), byte(done >> 8)}, Valid: i%3 != 0}
		}
		var recs, vindicated []ledger.Record
		for i, signed := range prov.SignBatch(items, int64(done)) {
			switch i % 3 {
			case 0: // invalid by the provider's own account, recorded unchecked
				recs = append(recs, ledger.Record{Signed: signed, Label: tx.LabelInvalid, Status: tx.StatusInvalid, Unchecked: true})
			case 1:
				recs = append(recs, ledger.Record{Signed: signed, Label: tx.LabelValid, Status: tx.StatusValid})
			case 2: // valid, mislabelled: argued now, recorded valid a block later
				recs = append(recs, ledger.Record{Signed: signed, Label: tx.LabelInvalid, Status: tx.StatusInvalid, Unchecked: true})
				vindicated = append(vindicated, ledger.Record{Signed: signed, Label: tx.LabelValid, Status: tx.StatusValid})
			}
		}
		commit(recs)
		commit(vindicated)
	}
	if len(prov.pending) != 0 {
		t.Fatalf("%d pending entries left after every transaction settled", len(prov.pending))
	}
	if want := total / perBlock * (perBlock / 3); sink.n != want {
		t.Fatalf("argued %d times, want %d", sink.n, want)
	}
	if got := prov.SettledValid(); got != total-total/perBlock*((perBlock+2)/3) {
		t.Fatalf("SettledValid() = %d", got)
	}
}

// TestProviderIgnoresForgedBlock: only a governor's block frame speaks
// for the chain. A collector's forged block that records the provider's
// valid transaction valid must not settle it, and one that records it
// invalid and unchecked must not draw an argue; each is counted, and
// the governor's real block still draws the argue.
func TestProviderIgnoresForgedBlock(t *testing.T) {
	fx := newFixture(t, nil)
	prov := fx.providers[0]
	reg := metrics.NewRegistry()
	prov.SetMetrics(reg)
	signed := prov.Sign("k", []byte{1}, true, 0)
	frame := func(from identity.Member, status tx.Status) network.Message {
		t.Helper()
		rec := ledger.Record{Signed: signed, Label: tx.LabelInvalid, Status: status, Unchecked: status == tx.StatusInvalid}
		blk, err := ledger.NewBlock(nil, []ledger.Record{rec}, 0)
		if err != nil {
			t.Fatal(err)
		}
		blk.SignAs(from.ID, from.PrivateKey)
		return network.Message{From: from.ID, Kind: network.KindBlock, Payload: blk.EncodeBytes()}
	}
	forger := fx.roster.Collectors[0]
	sink := &countingSender{}
	blocks, argues, err := prov.Ingest([]network.Message{frame(forger, tx.StatusValid), frame(forger, tx.StatusInvalid)}, sink)
	if err != nil || blocks != 0 || argues != 0 || sink.n != 0 {
		t.Fatalf("forged blocks: Ingest() = %d blocks, %d argues, %v; %d sent", blocks, argues, err, sink.n)
	}
	if got := prov.PendingValid(); got != 1 {
		t.Fatalf("PendingValid() = %d after the forged blocks, want 1", got)
	}
	if got := reg.CounterVec("node.blocks_ignored_total", "reason").With("not_governor").Value(); got != 2 {
		t.Fatalf("node.blocks_ignored_total{reason=not_governor} = %d, want 2", got)
	}
	if _, argues, err := prov.Ingest([]network.Message{frame(fx.roster.Governors[0], tx.StatusInvalid)}, sink); err != nil || argues != 1 || sink.n != 1 {
		t.Fatalf("the governor's unchecked-invalid block drew %d argues (%v), want 1", argues, err)
	}
}
