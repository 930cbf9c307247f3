package node

import (
	"bytes"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// signLeaves signs txs as one batch under key.
func signLeaves(txs []tx.Transaction, key crypto.PrivateKey) []tx.SignedTx {
	ids := make([]crypto.Hash, len(txs))
	for i, t := range txs {
		ids[i] = t.ID()
	}
	return tx.SignLeaves(txs, ids, key)
}

// parityTx signs a transaction from the fixture's provider 0.
func parityTx(fx *fixture, seq uint64, valid bool) tx.SignedTx {
	prov := fx.roster.Providers[0]
	payload := []byte{0, byte(seq)}
	if valid {
		payload[0] = 1
	}
	return tx.Sign(tx.Transaction{
		Provider: prov.ID, Seq: seq, Timestamp: int64(seq), Kind: "parity", Payload: payload,
	}, prov.PrivateKey)
}

// adversarialUploads lists, per collector, the items of an adversarial
// round: honest reports, an inner forgery (a provider batch signed by
// the wrong key), an equivocation pair and an idempotent duplicate.
func adversarialUploads(fx *fixture) [][]tx.UploadItem {
	prov := fx.roster.Providers[0]
	tx1, tx2, tx3 := parityTx(fx, 1, true), parityTx(fx, 2, false), parityTx(fx, 3, true)
	forged := tx.Sign(tx.Transaction{Provider: prov.ID, Seq: 9, Kind: "forged", Payload: []byte{1}},
		fx.roster.Collectors[0].PrivateKey)
	return [][]tx.UploadItem{
		{
			{Signed: tx1, Label: tx.LabelValid},
			{Signed: forged, Label: tx.LabelValid}, // inner forgery
			{Signed: tx2, Label: tx.LabelInvalid},
			{Signed: tx2, Label: tx.LabelValid},   // equivocation: flipped label
			{Signed: tx2, Label: tx.LabelInvalid}, // idempotent duplicate
		},
		{
			{Signed: tx1, Label: tx.LabelValid}, // second reporter
			{Signed: tx3, Label: tx.LabelValid},
		},
	}
}

// TestOneBatchMatchesBatchesOfOne feeds the same adversarial item
// sequence to two identically-seeded governors — once as one batch per
// collector, once as one batch per item — followed by a valid argue, a
// malformed one and a foreign message. Stats, reputation tables, queued
// argues, pass-through messages and the packed block must agree: the
// governor's state depends on the item sequence, not on how it was cut
// into batches (the attribution-parity gate of DESIGN.md §4f).
func TestOneBatchMatchesBatchesOfOne(t *testing.T) {
	wholeFx := newFixture(t, nil)
	splitFx := newFixture(t, nil)
	prov := wholeFx.roster.Providers[0]
	var whole, split []network.Message
	for c, items := range adversarialUploads(wholeFx) {
		coll := wholeFx.roster.Collectors[c]
		whole = append(whole, uploadMsg(t, coll, coll.ID, items...))
		for _, it := range items {
			split = append(split, uploadMsg(t, coll, coll.ID, it))
		}
	}
	others := []network.Message{
		{From: prov.ID, Kind: network.KindArgue,
			Payload: NewArgue(parityTx(wholeFx, 3, true), 1, prov.PrivateKey).EncodeBytes()}, // valid argue
		{From: prov.ID, Kind: network.KindArgue, Payload: []byte{0xFF}}, // malformed argue
		{From: prov.ID, Kind: network.KindBlock, Payload: []byte{1}},    // not ours: must pass through
	}
	wholeRest, err := wholeFx.governor.handleBatch(append(whole, others...))
	if err != nil {
		t.Fatal(err)
	}
	splitRest, err := splitFx.governor.handleBatch(append(split, others...))
	if err != nil {
		t.Fatal(err)
	}

	st := wholeFx.governor.Stats()
	if st != splitFx.governor.Stats() {
		t.Fatalf("stats diverge:\nwhole %+v\nsplit %+v", st, splitFx.governor.Stats())
	}
	// The inner forgery and the equivocation, both collector 0's.
	if st.ForgeriesDetected != 2 || st.ReportsReceived != 4 || st.ArguesRejected != 1 {
		t.Fatalf("stats %+v, want 2 forgeries, 4 reports, 1 rejected argue", st)
	}
	if !bytes.Equal(wholeFx.governor.Table().Snapshot(), splitFx.governor.Table().Snapshot()) {
		t.Fatal("reputation tables diverge")
	}
	if len(wholeFx.governor.argues) != 1 || len(splitFx.governor.argues) != 1 {
		t.Fatalf("queued argues: whole %d, split %d, want 1",
			len(wholeFx.governor.argues), len(splitFx.governor.argues))
	}
	if len(wholeRest) != 1 || len(splitRest) != 1 || wholeRest[0].Kind != network.KindBlock || splitRest[0].Kind != network.KindBlock {
		t.Fatalf("pass-through: whole %v, split %v, want the block message", wholeRest, splitRest)
	}

	// Screening the admitted groups must also agree byte for byte.
	if a, b := screenAndPack(t, wholeFx), screenAndPack(t, splitFx); !bytes.Equal(a, b) {
		t.Fatal("blocks diverge between one batch and batches of one")
	}
}

// screenAndPack screens the governor's pending uploads and returns the
// encoding of the block it would propose.
func screenAndPack(t *testing.T, fx *fixture) []byte {
	t.Helper()
	recs, err := fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.governor.buildBlock(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b.EncodeBytes()
}

// TestUploadBatchTamperRejectsWholeBatch flips every byte of a signed
// three-item batch in turn — items, count, round, collector ID and
// signature alike. Each tampered copy must be refused whole: exactly one
// forge penalty for the sender and no report admitted.
func TestUploadBatchTamperRejectsWholeBatch(t *testing.T) {
	fx := newFixture(t, nil)
	coll := fx.roster.Collectors[0]
	msg := uploadMsg(t, coll, coll.ID,
		tx.UploadItem{Signed: parityTx(fx, 1, true), Label: tx.LabelValid},
		tx.UploadItem{Signed: parityTx(fx, 2, false), Label: tx.LabelInvalid},
		tx.UploadItem{Signed: parityTx(fx, 3, true), Label: tx.LabelValid})
	penalties := 0
	for i := range msg.Payload {
		for _, mask := range []byte{0x01, 0x80} {
			bad := msg
			bad.Payload = append([]byte(nil), msg.Payload...)
			bad.Payload[i] ^= mask
			if _, err := fx.governor.handleBatch([]network.Message{bad}); err != nil {
				t.Fatal(err)
			}
			penalties++
			st := fx.governor.Stats()
			if st.ForgeriesDetected != penalties || st.ReportsReceived != 0 {
				t.Fatalf("byte %d mask %#x: %d penalties (want %d), %d reports (want 0)",
					i, mask, st.ForgeriesDetected, penalties, st.ReportsReceived)
			}
		}
	}
	// The untouched batch is still good.
	if _, err := fx.governor.handleBatch([]network.Message{msg}); err != nil {
		t.Fatal(err)
	}
	if st := fx.governor.Stats(); st.ForgeriesDetected != penalties || st.ReportsReceived != 3 {
		t.Fatalf("intact batch: %+v", st)
	}
}

// TestUploadEnvelopeRejectReasons sends one upload per envelope- and
// item-level refusal and checks the penalty count and the reason
// counter each one lands on.
func TestUploadEnvelopeRejectReasons(t *testing.T) {
	reg := metrics.NewRegistry()
	fx := newFixtureOpts(t, nil, func(cfg *GovernorConfig) { cfg.Metrics = reg })
	coll0, coll1 := fx.roster.Collectors[0], fx.roster.Collectors[1]
	prov := fx.roster.Providers[0]
	good := tx.UploadItem{Signed: parityTx(fx, 1, true), Label: tx.LabelValid}
	forged := tx.UploadItem{Signed: tx.Sign(tx.Transaction{Provider: prov.ID, Seq: 9, Kind: "forged", Payload: []byte{1}},
		coll0.PrivateKey), Label: tx.LabelValid}
	stranger := tx.UploadItem{Signed: tx.Sign(tx.Transaction{Provider: "provider/77", Seq: 1, Kind: "x", Payload: []byte{1}},
		prov.PrivateKey), Label: tx.LabelValid}
	outsider := identity.Member{ID: identity.MakeNodeID(identity.RoleCollector, 5), PrivateKey: coll0.PrivateKey}
	wrongKey := identity.Member{ID: coll0.ID, PrivateKey: coll1.PrivateKey}

	cases := []struct {
		reason    string
		msg       network.Message
		penalties int
		reports   int
	}{
		{"not_collector", uploadMsg(t, coll0, prov.ID, good), 0, 0},
		{"decode", network.Message{From: coll0.ID, Kind: network.KindCollectorBatch, Payload: []byte{0xFF}}, 1, 0},
		{"sender_mismatch", uploadMsg(t, coll0, coll1.ID, good), 1, 0},
		{"not_collector", uploadMsg(t, outsider, outsider.ID, good), 0, 0},
		{"batch_sig", uploadMsg(t, wrongKey, coll0.ID, good), 1, 0},
		{"item_provider_sig", uploadMsg(t, coll0, coll0.ID, good, forged), 1, 1},
		{"item_provider_sig", uploadMsg(t, coll1, coll1.ID, stranger), 1, 0},
	}
	wantByReason := map[string]int64{}
	for _, tc := range cases {
		before := fx.governor.Stats()
		if _, err := fx.governor.handleBatch([]network.Message{tc.msg}); err != nil {
			t.Fatal(err)
		}
		after := fx.governor.Stats()
		if got := after.ForgeriesDetected - before.ForgeriesDetected; got != tc.penalties {
			t.Errorf("%s: %d penalties, want %d", tc.reason, got, tc.penalties)
		}
		if got := after.ReportsReceived - before.ReportsReceived; got != tc.reports {
			t.Errorf("%s: %d reports admitted, want %d", tc.reason, got, tc.reports)
		}
		wantByReason[tc.reason]++
	}
	rejected := reg.CounterVec("node.uploads_rejected_total", "reason")
	for reason, want := range wantByReason {
		if got := rejected.With(reason).Value(); got != want {
			t.Errorf("node.uploads_rejected_total{reason=%q} = %d, want %d", reason, got, want)
		}
	}
}

// TestLateReportNotRerecorded is the TCP-shaped case the benchmark
// counted as invalid_rerecorded: collector 0's report for a transaction
// arrives in one round and the governor screens and commits it, then
// collector 1's report for the same transaction straggles in a round
// later. The late report must be dropped and counted, not screened into
// a second record — whether the first screening checked the transaction
// (committed valid) or left it (invalid, unchecked).
func TestLateReportNotRerecorded(t *testing.T) {
	reg := metrics.NewRegistry()
	fx := newFixtureOpts(t, nil, func(cfg *GovernorConfig) { cfg.Metrics = reg })
	const txs = 20
	for seq := uint64(1); seq <= txs; seq++ {
		// A valid transaction under a -1 label: screening either checks
		// it (recorded valid) or leaves it unchecked.
		item := tx.UploadItem{Signed: parityTx(fx, seq, true), Label: tx.LabelInvalid}
		for _, coll := range fx.roster.Collectors {
			if _, err := fx.governor.handleBatch([]network.Message{uploadMsg(t, coll, coll.ID, item)}); err != nil {
				t.Fatal(err)
			}
			recs, err := fx.governor.screenRound()
			if err != nil {
				t.Fatal(err)
			}
			b, err := fx.governor.buildBlock(recs)
			if err != nil {
				t.Fatal(err)
			}
			if err := fx.governor.AcceptBlock(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	recorded := map[string]int{}
	for serial := uint64(1); serial <= fx.governor.Store().Height(); serial++ {
		b, err := fx.governor.Store().Get(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			recorded[r.Signed.ID().String()]++
		}
	}
	if len(recorded) != txs {
		t.Fatalf("%d transactions recorded, want %d", len(recorded), txs)
	}
	for id, n := range recorded {
		if n != 1 {
			t.Errorf("transaction %s recorded %d times, want once", id[:8], n)
		}
	}
	st := fx.governor.Stats()
	if st.Unchecked == 0 || st.ValidRecorded == 0 {
		t.Fatalf("want both screening outcomes exercised, got %d unchecked and %d checked", st.Unchecked, st.ValidRecorded)
	}
	if got := reg.CounterVec("node.uploads_rejected_total", "reason").With("late").Value(); got != txs {
		t.Fatalf("node.uploads_rejected_total{reason=late} = %d, want %d", got, txs)
	}
}

// TestChunkInvariance runs the same round with the collectors' byte
// budget forced to split their uploads after every item, after every
// seventh, and not at all: the packed block and the reputation table
// must be byte-identical, and only the number of batches may differ.
func TestChunkInvariance(t *testing.T) {
	const txs = 20
	run := func(perBatch int) (block, table []byte, batches int64) {
		fx := newFixture(t, []Behavior{ProbBehavior{Misreport: 0.3, Forge: 1}, nil})
		for i := 0; i < txs; i++ {
			if _, err := fx.providers[i%2].Submit("test", []byte{byte(i % 2), 0xAA}, i%2 == 1, 0, fx.bus); err != nil {
				t.Fatal(err)
			}
		}
		for c, coll := range fx.collectors {
			if perBatch > 0 {
				// Every honest item has the same size here, so this budget
				// holds exactly perBatch of them.
				sample := tx.UploadItem{Signed: parityTx(fx, 1, true)}
				sample.Signed.Tx.Kind, sample.Signed.Tx.Payload = "test", []byte{0, 0xAA}
				coll.budget = perBatch * sample.WireSizeBound()
			}
			fx.collect(t, c)
		}
		batches = fx.bus.Stats().SentByKind[network.KindCollectorBatch]
		fx.drain(t)
		if got := fx.governor.Stats().ReportsReceived; got != 2*txs {
			t.Fatalf("perBatch=%d: %d reports, want %d", perBatch, got, 2*txs)
		}
		return screenAndPack(t, fx), fx.governor.Table().Snapshot(), batches
	}
	wantBlock, wantTable, whole := run(0)
	if whole != 2 {
		t.Fatalf("unsplit round sent %d batches, want one per collector", whole)
	}
	for _, perBatch := range []int{1, 7} {
		block, table, batches := run(perBatch)
		if batches <= whole {
			t.Fatalf("perBatch=%d sent %d batches; the budget did not split", perBatch, batches)
		}
		if !bytes.Equal(block, wantBlock) {
			t.Errorf("perBatch=%d: block differs from the unsplit round", perBatch)
		}
		if !bytes.Equal(table, wantTable) {
			t.Errorf("perBatch=%d: reputation table differs from the unsplit round", perBatch)
		}
	}
}

// TestBuildBlockIncrementalRootMatchesRecompute checks the packed
// block's incrementally-built root against a from-scratch recompute.
func TestBuildBlockIncrementalRootMatchesRecompute(t *testing.T) {
	fx := newFixture(t, nil)
	for seq := uint64(0); seq < 5; seq++ {
		fx.runUpload(t, int(seq%2), seq%2 == 0)
	}
	recs, err := fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records screened")
	}
	b, err := fx.governor.buildBlock(recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := ledger.ComputeTxRoot(b.Records); b.TxRoot != want {
		t.Fatalf("incremental root %s, recomputed %s", b.TxRoot.Short(), want.Short())
	}
}

// TestGovernorBatchPenaltyParity: in an authenticated upload, the k
// items of one bad provider batch cost exactly k forge penalties — what
// k bad batches of one cost — and the upload's other items are
// admitted. The governor submits one signature check per distinct
// batch, and a collector discards each item of a bad batch.
func TestGovernorBatchPenaltyParity(t *testing.T) {
	const k = 3
	type outcome struct {
		stats    GovernorStats
		table    []byte
		rejected int64
		checks   int64
	}
	run := func(bad func(fx *fixture, txs []tx.Transaction) []tx.SignedTx) outcome {
		reg := metrics.NewRegistry()
		fx := newFixtureOpts(t, nil, func(cfg *GovernorConfig) { cfg.Metrics = reg })
		prov, coll := fx.roster.Providers[0], fx.roster.Collectors[0]
		txs := func(from uint64, n int) []tx.Transaction {
			out := make([]tx.Transaction, n)
			for i := range out {
				seq := from + uint64(i)
				out[i] = tx.Transaction{Provider: prov.ID, Seq: seq, Timestamp: int64(seq), Kind: "parity", Payload: []byte{1, byte(seq)}}
			}
			return out
		}
		good := signLeaves(txs(1, 5), prov.PrivateKey)
		forged := bad(fx, txs(100, k))
		var items []tx.UploadItem
		for i := range good {
			items = append(items, tx.UploadItem{Signed: good[i], Label: tx.LabelValid})
			if i < k {
				items = append(items, tx.UploadItem{Signed: forged[i], Label: tx.LabelValid})
			}
		}
		before := crypto.DefaultVerifyCache.BatchStats()
		if _, err := fx.governor.handleBatch([]network.Message{uploadMsg(t, coll, coll.ID, items...)}); err != nil {
			t.Fatal(err)
		}
		after := crypto.DefaultVerifyCache.BatchStats()

		// The collector side: the same transactions in provider frames.
		frames := []network.Message{
			{From: prov.ID, Kind: network.KindProviderTx, Payload: tx.EncodeListBytes(good)},
			{From: prov.ID, Kind: network.KindProviderTx, Payload: tx.EncodeListBytes(forged)},
		}
		uploaded, err := fx.collectors[0].ProcessBatch(frames, &countingSender{})
		if err != nil {
			t.Fatal(err)
		}
		if st := fx.collectors[0].Stats(); uploaded != len(good) || st.Discarded != k || st.Received != len(good)+k {
			t.Fatalf("collector uploaded %d, stats %+v; want %d uploaded and %d discarded", uploaded, st, len(good), k)
		}
		return outcome{
			stats:    fx.governor.Stats(),
			table:    fx.governor.Table().Snapshot(),
			rejected: reg.CounterVec("node.uploads_rejected_total", "reason").With("item_provider_sig").Value(),
			checks:   (after.Hits + after.Deduped + after.Verified) - (before.Hits + before.Deduped + before.Verified),
		}
	}
	// One batch of k under the collector's key, claiming the provider.
	oneBad := run(func(fx *fixture, txs []tx.Transaction) []tx.SignedTx {
		return signLeaves(txs, fx.roster.Collectors[0].PrivateKey)
	})
	// k batches of one, each under the collector's key.
	kBad := run(func(fx *fixture, txs []tx.Transaction) []tx.SignedTx {
		out := make([]tx.SignedTx, len(txs))
		for i, t := range txs {
			out[i] = tx.Sign(t, fx.roster.Collectors[0].PrivateKey)
		}
		return out
	})
	for name, o := range map[string]outcome{"one bad batch": oneBad, "bad batches of one": kBad} {
		if o.stats.ForgeriesDetected != k || o.rejected != k || o.stats.ReportsReceived != 5 {
			t.Errorf("%s: %d penalties, %d item_provider_sig refusals, %d reports; want %d, %d, 5",
				name, o.stats.ForgeriesDetected, o.rejected, o.stats.ReportsReceived, k, k)
		}
	}
	if oneBad.stats != kBad.stats || !bytes.Equal(oneBad.table, kBad.table) {
		t.Fatalf("one bad batch and bad batches of one diverge:\n%+v\n%+v", oneBad.stats, kBad.stats)
	}
	// The upload's signature, then one check per distinct provider batch.
	if oneBad.checks != 1+2 || kBad.checks != 1+1+k {
		t.Fatalf("signature checks: %d and %d, want %d and %d", oneBad.checks, kBad.checks, 3, 2+k)
	}
}
