package node

import (
	"slices"
	"testing"
	"time"

	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// signBatch stages items and signs them as one batch, as a provider's
// Step does with what was queued for its round.
func signBatch(p *Provider, items []Submission, timestamp int64) []tx.SignedTx {
	return p.signStaged(p.Stage(items, timestamp))
}

// queue stages items and queues them for the provider's next round.
func queue(p *Provider, items []Submission, timestamp int64) {
	txs, ids := p.Stage(items, timestamp)
	for i := range txs {
		p.Queue(txs[i], ids[i])
	}
}

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
	warm := []Submission{{Kind: "warm", Payload: []byte{1}, Valid: true}}
	signBatch(one, warm, 5)
	signBatch(batch, warm, 5)
	var want []tx.SignedTx
	for _, it := range items {
		want = append(want, signBatch(one, []Submission{it}, 9)[0])
	}
	got := signBatch(batch, items, 9)
	if len(got) != n {
		t.Fatalf("signBatch returned %d transactions, want %d", len(got), n)
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

// countingSender counts multicasts and drops them, keeping the last
// payload.
type countingSender struct {
	n    int
	last []byte
}

func (s *countingSender) Multicast(_ identity.NodeID, _ []identity.NodeID, _ string, payload []byte) error {
	s.n, s.last = s.n+1, payload
	return nil
}

// TestProviderStateBounded pins a provider's state to what it may argue.
// Every transaction signed through Queue and Step — valid,
// invalid-and-recorded, and argued then vindicated — leaves nothing
// behind once a block settles it, neither pending nor in the queue. And
// over 200 rounds with a quarter of each round invalid, which governors
// check and discard so that no block ever names them, pending holds no
// more than the valid submissions still in flight.
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
	// sign stages and queues items for round and steps the provider
	// through the round's opening; it returns the envelopes it broadcast.
	sign := func(round uint64, items []Submission) []tx.SignedTx {
		t.Helper()
		txs, ids := prov.Stage(items, int64(round))
		for i := range txs {
			prov.Queue(txs[i], ids[i])
		}
		frames := &countingSender{}
		for range 2 { // open the round, then sign
			if _, err := prov.Step(testClock.At(round, 0).Add(time.Nanosecond), nil, frames); err != nil {
				t.Fatal(err)
			}
		}
		signed, _, err := tx.DecodeListBytes(frames.last, nil, nil)
		if err != nil || len(signed) != len(items) {
			t.Fatalf("round %d broadcast %d of %d transactions: %v", round, len(signed), len(items), err)
		}
		return signed
	}
	for done := 0; done < total; done += perBlock {
		items := make([]Submission, perBlock)
		for i := range items {
			items[i] = Submission{Kind: "k", Payload: []byte{byte(i % 3), byte(i), byte(i >> 8), byte(done >> 8)}, Valid: i%3 != 0}
		}
		var recs, vindicated []ledger.Record
		for i, signed := range sign(uint64(done/perBlock+1), items) {
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
	if slices.ContainsFunc(prov.queued[:cap(prov.queued)], func(t tx.Transaction) bool { return t.Payload != nil }) {
		t.Fatal("the signing queue still holds signed transactions")
	}
	if want := total / perBlock * (perBlock / 3); sink.n != want {
		t.Fatalf("argued %d times, want %d", sink.n, want)
	}
	if got := prov.SettledValid(); got != total-total/perBlock*((perBlock+2)/3) {
		t.Fatalf("SettledValid() = %d", got)
	}

	// Each round's block settles the round before's valid transactions
	// and names none of its invalid ones.
	const rounds, perRound = 200, 16
	var landing []ledger.Record
	for r := 1; r <= rounds; r++ {
		items := make([]Submission, perRound)
		for i := range items {
			items[i] = Submission{Kind: "k", Payload: []byte{byte(i), byte(r), byte(r >> 8)}, Valid: i%4 != 0}
		}
		signed := sign(uint64(total/perBlock+r), items)
		commit(landing)
		landing = landing[:0]
		for i, s := range signed {
			if items[i].Valid {
				landing = append(landing, ledger.Record{Signed: s, Label: tx.LabelValid, Status: tx.StatusValid})
			}
		}
		if inFlight := len(landing); len(prov.pending) > inFlight || prov.PendingValid() != inFlight {
			t.Fatalf("round %d: %d pending entries, PendingValid() = %d, with %d valid transactions in flight",
				r, len(prov.pending), prov.PendingValid(), inFlight)
		}
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
	signed := signBatch(prov, []Submission{{Kind: "k", Payload: []byte{1}, Valid: true}}, 0)[0]
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
	blocks, err := prov.ingest([]network.Message{frame(forger, tx.StatusValid), frame(forger, tx.StatusInvalid)}, sink)
	if err != nil || blocks != 0 || prov.Argues() != 0 || sink.n != 0 {
		t.Fatalf("forged blocks: ingest() = %d blocks, %d argues, %v; %d sent", blocks, prov.Argues(), err, sink.n)
	}
	if got := prov.PendingValid(); got != 1 {
		t.Fatalf("PendingValid() = %d after the forged blocks, want 1", got)
	}
	if got := reg.CounterVec("node.blocks_ignored_total", "reason").With("not_governor").Value(); got != 2 {
		t.Fatalf("node.blocks_ignored_total{reason=not_governor} = %d, want 2", got)
	}
	if _, err := prov.ingest([]network.Message{frame(fx.roster.Governors[0], tx.StatusInvalid)}, sink); err != nil || prov.Argues() != 1 || sink.n != 1 {
		t.Fatalf("the governor's unchecked-invalid block drew %d argues (%v), want 1", prov.Argues(), err)
	}
}

// TestProviderStep walks a provider's round through Step. The Step that
// opens a round with transactions queued signs nothing yet and is due
// again at once; the next signs them as one batch, sends each linked
// collector one frame and awaits the block; the block ends the round,
// and the provider wakes at the next round's opening. A round opened
// with nothing queued is over at once, and one whose block never comes
// ends at its end. A provider without a clock cannot Step.
func TestProviderStep(t *testing.T) {
	fx := newFixture(t, nil)
	prov := fx.providers[0]
	gov := fx.roster.Governors[0]
	opening := func(r uint64) time.Time { return testClock.At(r, 0).Add(time.Nanosecond) }
	step := func(now time.Time, want Phase, wake time.Time, msgs ...network.Message) {
		t.Helper()
		p, err := prov.Step(now, msgs, fx.bus)
		if err != nil {
			t.Fatal(err)
		}
		if p.Phase != want || !p.WakeAt.Equal(wake) {
			t.Fatalf("Step at %v: round %d phase %d waking at %v, want phase %d waking at %v", now, p.Round, p.Phase, p.WakeAt, want, wake)
		}
	}

	queue(prov, []Submission{{Kind: "k", Payload: []byte{1}, Valid: true}, {Kind: "k", Payload: []byte{1, 2}, Valid: true}}, 0)
	step(opening(1), PhaseSign, opening(1))
	if n := fx.collEps[0].Pending(); n != 0 {
		t.Fatalf("%d frames sent by the opening Step, want none", n)
	}
	step(opening(1), PhaseArgue, testClock.At(1, 1))
	for c, ep := range fx.collEps {
		msgs := ep.Receive()
		if len(msgs) != 1 {
			t.Fatalf("collector %d got %d frames, want 1", c, len(msgs))
		}
		list, _, err := tx.DecodeListBytes(msgs[0].Payload, nil, nil)
		if err != nil || len(list) != 2 || list[0].Batch != list[1].Batch {
			t.Fatalf("collector %d: a frame of %d transactions (%v), want one batch of 2", c, len(list), err)
		}
	}
	rec := ledger.Record{Signed: signBatch(prov, []Submission{{Kind: "k", Payload: []byte{3}, Valid: true}}, 0)[0],
		Label: tx.LabelInvalid, Status: tx.StatusInvalid, Unchecked: true}
	blk, err := ledger.NewBlock(nil, []ledger.Record{rec}, 0)
	if err != nil {
		t.Fatal(err)
	}
	blk.SignAs(gov.ID, gov.PrivateKey)
	block := network.Message{From: gov.ID, Kind: network.KindBlock, Payload: blk.EncodeBytes()}
	step(testClock.At(1, DeadlineElect), PhaseOver, opening(2), block)
	if prov.Argues() != 1 || fx.inbox.Pending() != 1 {
		t.Fatalf("%d argues, %d at the governor; want 1", prov.Argues(), fx.inbox.Pending())
	}

	step(opening(2), PhaseOver, opening(3))
	queue(prov, []Submission{{Kind: "k", Payload: []byte{4}, Valid: true}}, 0)
	step(opening(3), PhaseSign, opening(3))
	step(opening(3), PhaseArgue, testClock.At(3, 1))
	step(testClock.At(3, 1), PhaseOver, opening(4))

	if _, err := NewProvider(fx.roster.Providers[1], nil, nil, nil).Step(opening(1), nil, fx.bus); err == nil {
		t.Fatal("a provider without a clock stepped")
	}
}
