package node

import (
	"testing"

	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// steadyRound is one round of the steady benchmark shape — 8 providers,
// 4 collectors, r = 2 — carrying 256 transactions: 32 per provider, each
// provider's signed as one batch, three in four valid.
func steadyRound(b *testing.B) (*fixture, [][]tx.SignedTx) {
	topo, err := identity.NewRegularTopology(identity.TopologySpec{Providers: 8, Collectors: 4, Degree: 2})
	if err != nil {
		b.Fatal(err)
	}
	fx := newFixtureOn(b, topo, nil, nil)
	signed := make([][]tx.SignedTx, len(fx.roster.Providers))
	for k, prov := range fx.roster.Providers {
		txs := make([]tx.Transaction, 32)
		for i := range txs {
			payload := []byte{1, byte(k), byte(i), 0, 0, 0, 0, 0}
			if i%4 == 3 {
				payload[0] = 0
			}
			txs[i] = tx.Transaction{Provider: prov.ID, Seq: uint64(i + 1), Timestamp: 1, Kind: "bench", Payload: payload}
		}
		signed[k] = signLeaves(txs, prov.PrivateKey)
	}
	return fx, signed
}

// BenchmarkGovernorUploadIntake is one governor's drain of a round's
// uploads: every collector's signed batch of its linked providers'
// transactions, r·256 items in all, through handleBatch — decode,
// collector and provider batch signatures, leaf checks and admission.
// The keys' verdict memos are warm, as for every governor of a round
// but the first, so the signature checks are memo hits.
func BenchmarkGovernorUploadIntake(b *testing.B) {
	fx, signed := steadyRound(b)
	var msgs []network.Message
	for c, coll := range fx.roster.Collectors {
		var items []tx.UploadItem
		for _, k := range fx.roster.Topology.ProvidersOf(c) {
			for _, s := range signed[k] {
				items = append(items, tx.UploadItem{Signed: s, Label: tx.LabelFor(oracle, s.Tx)})
			}
		}
		frame, err := tx.SignUploadBatch(coll.ID, 1, items, coll.PrivateKey)
		if err != nil {
			b.Fatal(err)
		}
		msgs = append(msgs, network.Message{From: coll.ID, Kind: network.KindCollectorBatch, Payload: frame})
	}
	cfg := fx.governor.cfg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gov, err := NewGovernor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := gov.handleBatch(msgs); err != nil {
			b.Fatal(err)
		}
		if got := gov.Stats().ReportsReceived; got != 2*256 {
			b.Fatalf("%d reports admitted, want %d", got, 2*256)
		}
	}
}

// BenchmarkProviderIngest is one provider's intake of a round's
// 256-record block from its governor: the frame decoded — the
// provider's own 32 records materialised — and observed.
func BenchmarkProviderIngest(b *testing.B) {
	fx, signed := steadyRound(b)
	var records []ledger.Record
	for i := range signed[0] {
		for k := range signed {
			records = append(records, ledger.Record{Signed: signed[k][i], Label: tx.LabelValid, Status: tx.StatusValid})
		}
	}
	blk, err := ledger.NewBlock(nil, records, 0)
	if err != nil {
		b.Fatal(err)
	}
	gov := fx.roster.Governors[0]
	blk.SignAs(gov.ID, gov.PrivateKey)
	msgs := []network.Message{{From: gov.ID, Kind: network.KindBlock, Payload: blk.EncodeBytes()}}
	prov := fx.providers[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := prov.ingest(msgs, fx.bus); err != nil || n != 1 {
			b.Fatalf("ingest() = %d blocks, %v", n, err)
		}
	}
}
