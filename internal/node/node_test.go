package node

import (
	"errors"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// fixture wires a 2-provider / 2-collector / 1-governor deployment on
// an in-memory bus.
type fixture struct {
	roster *identity.Roster
	bus    *network.Bus

	providers  []*Provider
	collectors []*Collector
	governor   *Governor
}

var oracle = tx.ValidatorFunc(func(t tx.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

func newFixture(t *testing.T, behaviors []Behavior) *fixture {
	t.Helper()
	return newFixtureOpts(t, behaviors, nil)
}

// newFixtureOpts is newFixture with a hook to adjust the governor's
// configuration before construction.
func newFixtureOpts(t *testing.T, behaviors []Behavior, mutate func(*GovernorConfig)) *fixture {
	t.Helper()
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: 2, Collectors: 2, Degree: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newFixtureOn(t, topo, behaviors, mutate)
}

// newFixtureOn is newFixtureOpts over an explicit topology.
func newFixtureOn(t *testing.T, topo *identity.Topology, behaviors []Behavior, mutate func(*GovernorConfig)) *fixture {
	t.Helper()
	seed := make([]byte, crypto.SeedSize)
	seed[0] = 0x77
	roster, err := identity.NewRoster(topo, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{roster: roster, bus: network.NewBus(0)}

	govIDs := []identity.NodeID{roster.Governors[0].ID}
	for k, mem := range roster.Providers {
		ep, err := fx.bus.Register(mem.ID)
		if err != nil {
			t.Fatal(err)
		}
		var collIDs []identity.NodeID
		for _, c := range topo.CollectorsOf(k) {
			collIDs = append(collIDs, roster.Collectors[c].ID)
		}
		fx.providers = append(fx.providers, NewProvider(mem, ep, collIDs, govIDs))
	}
	for c, mem := range roster.Collectors {
		ep, err := fx.bus.Register(mem.ID)
		if err != nil {
			t.Fatal(err)
		}
		var b Behavior
		if behaviors != nil {
			b = behaviors[c]
		}
		fx.collectors = append(fx.collectors, NewCollector(mem, ep, roster, oracle, b, int64(100+c)))
	}
	ep, err := fx.bus.Register(roster.Governors[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GovernorConfig{
		Member:      roster.Governors[0],
		Endpoint:    ep,
		Roster:      roster,
		Params:      reputation.DefaultParams(),
		Validator:   oracle,
		ArgueWindow: 4,
		Seed:        7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gov, err := NewGovernor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx.governor = gov
	return fx
}

// runUpload pushes one provider transaction through collection and
// upload into the governor's groups.
func (fx *fixture) runUpload(t *testing.T, k int, valid bool) tx.SignedTx {
	t.Helper()
	payload := []byte{0}
	if valid {
		payload[0] = 1
	}
	signed, err := fx.providers[k].Submit("test", payload, valid, 0, fx.bus)
	if err != nil {
		t.Fatal(err)
	}
	for c := range fx.collectors {
		fx.collect(t, c)
	}
	fx.drain(t)
	return signed
}

// collect runs collector c over its inbox, uploading onto the bus.
func (fx *fixture) collect(t *testing.T, c int) {
	t.Helper()
	if _, err := fx.collectors[c].ProcessBatch(fx.collectors[c].Endpoint().Receive(), fx.bus); err != nil {
		t.Fatal(err)
	}
}

// drain feeds the governor its inbox.
func (fx *fixture) drain(t *testing.T) {
	t.Helper()
	if _, err := fx.governor.handleBatch(fx.governor.Endpoint().Receive()); err != nil {
		t.Fatal(err)
	}
}

// uploadMsg signs items as one round-300 batch from coll (a round two
// varint bytes long) and wraps it as the message a governor would
// receive from sender from.
func uploadMsg(t *testing.T, coll identity.Member, from identity.NodeID, items ...tx.UploadItem) network.Message {
	t.Helper()
	return roundUploadMsg(t, coll, from, 300, items...)
}

// roundUploadMsg is uploadMsg for a batch tagged with round.
func roundUploadMsg(t *testing.T, coll identity.Member, from identity.NodeID, round uint64, items ...tx.UploadItem) network.Message {
	t.Helper()
	batch, err := tx.SignUploadBatch(coll.ID, round, items, coll.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	return network.Message{From: from, Kind: network.KindCollectorBatch, Payload: batch.EncodeBytes()}
}

func TestArgueRoundTripAndVerify(t *testing.T) {
	seed := make([]byte, crypto.SeedSize)
	pub, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	signed := tx.Sign(tx.Transaction{Provider: "provider/0", Seq: 1, Kind: "k", Payload: []byte{1}}, priv)
	a := NewArgue(signed, 7, priv)
	if err := a.Verify(pub); err != nil {
		t.Fatalf("Verify() error = %v", err)
	}
	got, err := DecodeArgueBytes(a.EncodeBytes())
	if err != nil {
		t.Fatalf("DecodeArgueBytes() error = %v", err)
	}
	if got.Serial != 7 || got.Signed.ID() != signed.ID() {
		t.Fatal("round trip mismatch")
	}
	// Serial tampering breaks the outer signature.
	got.Serial = 9
	if err := got.Verify(pub); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("tampered Verify() error = %v, want ErrBadMessage", err)
	}
	if _, err := DecodeArgueBytes([]byte("junk")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestCollectorHonestUpload(t *testing.T) {
	fx := newFixture(t, nil)
	fx.runUpload(t, 0, true)
	st := fx.collectors[0].Stats()
	if st.Received != 1 || st.Uploaded != 1 || st.Concealed != 0 {
		t.Fatalf("collector stats = %+v", st)
	}
	// Both collectors reported; governor grouped one tx with two
	// reports.
	if fx.governor.Stats().ReportsReceived != 2 {
		t.Fatalf("governor got %d reports, want 2", fx.governor.Stats().ReportsReceived)
	}
}

func TestCollectorConcealment(t *testing.T) {
	fx := newFixture(t, []Behavior{ProbBehavior{Conceal: 1}, nil})
	fx.runUpload(t, 0, true)
	if fx.collectors[0].Stats().Concealed != 1 {
		t.Fatal("concealer did not conceal")
	}
	if fx.governor.Stats().ReportsReceived != 1 {
		t.Fatalf("governor got %d reports, want 1", fx.governor.Stats().ReportsReceived)
	}
}

func TestCollectorMisreport(t *testing.T) {
	fx := newFixture(t, []Behavior{ProbBehavior{Misreport: 1}, nil})
	fx.runUpload(t, 0, true)
	recs, err := fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	// With one liar and one honest reporter, screening may or may not
	// check; but the governor must have two reports with opposite
	// labels — verify via reputation effect after a checked
	// transaction: run enough uploads that a check certainly happens
	// and the misreporter's score drops.
	for i := 0; i < 30; i++ {
		fx.runUpload(t, 0, true)
		if _, err := fx.governor.screenRound(); err != nil {
			t.Fatal(err)
		}
	}
	_ = recs
	if fx.governor.Table().Misreport(0) >= 0 {
		t.Fatalf("misreporter score = %v, want negative", fx.governor.Table().Misreport(0))
	}
	if fx.governor.Table().Misreport(1) <= 0 {
		t.Fatalf("honest score = %v, want positive", fx.governor.Table().Misreport(1))
	}
}

func TestCollectorDiscardsBadProviderSignature(t *testing.T) {
	fx := newFixture(t, nil)
	// Craft a transaction whose provider batch is signed by the wrong
	// key and send it from the provider's endpoint.
	prov := fx.roster.Providers[0]
	forged := tx.Sign(tx.Transaction{
		Provider: prov.ID, Seq: 99, Kind: "x", Payload: []byte{1},
	}, fx.roster.Collectors[0].PrivateKey) // wrong key
	if err := fx.bus.Multicast(prov.ID, []identity.NodeID{fx.roster.Collectors[0].ID},
		network.KindProviderTx, forged.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	fx.collect(t, 0)
	st := fx.collectors[0].Stats()
	if st.Discarded != 1 || st.Uploaded != 0 {
		t.Fatalf("stats = %+v, want 1 discard", st)
	}
}

func TestCollectorDiscardsSpoofedSender(t *testing.T) {
	fx := newFixture(t, nil)
	// provider/1 relays a transaction claiming to be from provider/0:
	// the From/Provider mismatch must be discarded.
	p0 := fx.roster.Providers[0]
	signed := tx.Sign(tx.Transaction{
		Provider: p0.ID, Seq: 5, Kind: "x", Payload: []byte{1},
	}, p0.PrivateKey)
	if err := fx.bus.Multicast(fx.roster.Providers[1].ID,
		[]identity.NodeID{fx.roster.Collectors[0].ID},
		network.KindProviderTx, signed.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	fx.collect(t, 0)
	if fx.collectors[0].Stats().Discarded != 1 {
		t.Fatal("spoofed relay not discarded")
	}
}

func TestGovernorDetectsForgedUpload(t *testing.T) {
	fx := newFixture(t, []Behavior{ProbBehavior{Forge: 1}, ProbBehavior{}})
	fx.runUpload(t, 0, true)
	st := fx.governor.Stats()
	if st.ForgeriesDetected == 0 {
		t.Fatal("forged upload not detected")
	}
	if fx.governor.Table().Forge(0) >= 0 {
		t.Fatalf("forger's forge score = %v, want negative", fx.governor.Table().Forge(0))
	}
	// The forged transaction must not be grouped for screening.
	recs, err := fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Signed.Tx.Kind == "forged" {
			t.Fatal("forged transaction reached screening output")
		}
	}
}

func TestGovernorDetectsEquivocation(t *testing.T) {
	// Collector 0 signs two different labels for the same transaction,
	// inside one batch or across two.
	for _, name := range []string{"within a batch", "across batches"} {
		t.Run(name, func(t *testing.T) {
			fx := newFixture(t, nil)
			prov := fx.roster.Providers[0]
			coll := fx.roster.Collectors[0]
			signed := tx.Sign(tx.Transaction{Provider: prov.ID, Seq: 1, Kind: "x", Payload: []byte{1}}, prov.PrivateKey)
			a := tx.UploadItem{Signed: signed, Label: tx.LabelValid}
			b := tx.UploadItem{Signed: signed, Label: tx.LabelInvalid}
			msgs := []network.Message{uploadMsg(t, coll, coll.ID, a, b)}
			if name == "across batches" {
				msgs = []network.Message{uploadMsg(t, coll, coll.ID, a), uploadMsg(t, coll, coll.ID, b)}
			}
			if _, err := fx.governor.handleBatch(msgs); err != nil {
				t.Fatal(err)
			}
			st := fx.governor.Stats()
			if st.ForgeriesDetected != 1 || st.ReportsReceived != 1 {
				t.Fatalf("equivocation: %d penalties, %d reports, want 1 and 1", st.ForgeriesDetected, st.ReportsReceived)
			}
		})
	}
}

func TestGovernorRejectsUnlinkedUpload(t *testing.T) {
	// Provider 0 is linked with collector 0 only.
	topo, err := identity.NewTopologyFromLinks(2, 2, [][]int{{0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixtureOn(t, topo, nil, nil)
	prov, outsider := fx.roster.Providers[0], fx.roster.Collectors[1]
	signed := tx.Sign(tx.Transaction{Provider: prov.ID, Seq: 2, Kind: "x", Payload: []byte{1}}, prov.PrivateKey)
	msg := uploadMsg(t, outsider, outsider.ID, tx.UploadItem{Signed: signed, Label: tx.LabelValid})
	if _, err := fx.governor.handleBatch([]network.Message{msg}); err != nil {
		t.Fatal(err)
	}
	if st := fx.governor.Stats(); st.ForgeriesDetected != 1 || st.ReportsReceived != 0 {
		t.Fatalf("unlinked upload: %d penalties, %d reports, want 1 and 0", st.ForgeriesDetected, st.ReportsReceived)
	}
	if got := fx.governor.Table().Forge(1); got >= 0 {
		t.Fatalf("unlinked uploader's forge score = %v, want negative", got)
	}
}

func TestGovernorScreeningRecordsShape(t *testing.T) {
	fx := newFixture(t, nil)
	validTx := fx.runUpload(t, 0, true)
	invalidTx := fx.runUpload(t, 1, false)
	recs, err := fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	foundValid := false
	for _, r := range recs {
		switch r.Signed.ID() {
		case validTx.ID():
			foundValid = true
			if r.Status != tx.StatusValid || r.Unchecked {
				t.Fatalf("valid tx record = %+v", r)
			}
		case invalidTx.ID():
			// Either screened invalid (discarded, no record) or left
			// unchecked (recorded invalid+unchecked).
			if r.Status != tx.StatusInvalid || !r.Unchecked {
				t.Fatalf("invalid tx record = %+v", r)
			}
		}
	}
	if !foundValid {
		t.Fatal("valid checked transaction missing from records")
	}
}

func TestGovernorArgueWindowExpiry(t *testing.T) {
	// Force every transaction unchecked by making all collectors
	// label -1 with f close to 1... simpler: use misreporting
	// collectors and high f so some land unchecked; then flood past
	// the window and verify expiry reveals them invalid.
	fx := newFixture(t, []Behavior{ProbBehavior{Misreport: 1}, ProbBehavior{Misreport: 1}})
	// All collectors lie: valid txs labeled -1. f = 0.5 default means
	// roughly half the -1 draws skip verification.
	for i := 0; i < 60; i++ {
		fx.runUpload(t, 0, true)
		if _, err := fx.governor.screenRound(); err != nil {
			t.Fatal(err)
		}
	}
	st := fx.governor.Stats()
	if st.Unchecked == 0 {
		t.Fatal("no unchecked transactions; expiry path not exercised")
	}
	if st.Expired == 0 {
		t.Fatalf("argue window (%d) never expired despite %d unchecked", 4, st.Unchecked)
	}
	if got := fx.governor.pendingUnchecked(0); got > 4 {
		t.Fatalf("pending unchecked %d exceeds window 4", got)
	}
}

func TestProviderObserveBlockArgues(t *testing.T) {
	fx := newFixture(t, nil)
	prov := fx.providers[0]
	signed, err := prov.Submit("test", []byte{1}, true, 0, fx.bus)
	if err != nil {
		t.Fatal(err)
	}
	// Build a block recording the tx invalid+unchecked.
	rec := ledger.Record{Signed: signed, Label: tx.LabelInvalid, Status: tx.StatusInvalid, Unchecked: true}
	blk, err := ledger.NewBlock(nil, []ledger.Record{rec}, 0)
	if err != nil {
		t.Fatal(err)
	}
	argues, err := prov.ObserveBlock(blk, fx.bus)
	if err != nil {
		t.Fatal(err)
	}
	if argues != 1 {
		t.Fatalf("argues = %d, want 1", argues)
	}
	// Duplicate observation must not re-argue.
	argues, err = prov.ObserveBlock(blk, fx.bus)
	if err != nil {
		t.Fatal(err)
	}
	if argues != 0 {
		t.Fatal("provider argued twice for one transaction")
	}
	if prov.PendingValid() != 1 {
		t.Fatalf("PendingValid() = %d, want 1 (still unsettled)", prov.PendingValid())
	}
	// Now a block records it valid: settles.
	rec2 := ledger.Record{Signed: signed, Label: tx.LabelValid, Status: tx.StatusValid}
	blk2, err := ledger.NewBlock(&blk, []ledger.Record{rec2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prov.ObserveBlock(blk2, fx.bus); err != nil {
		t.Fatal(err)
	}
	if prov.PendingValid() != 0 || prov.SettledValid() != 1 {
		t.Fatalf("pending %d settled %d", prov.PendingValid(), prov.SettledValid())
	}
}

func TestProviderDoesNotArgueInvalidTx(t *testing.T) {
	fx := newFixture(t, nil)
	prov := fx.providers[0]
	signed, err := prov.Submit("test", []byte{0}, false, 0, fx.bus)
	if err != nil {
		t.Fatal(err)
	}
	rec := ledger.Record{Signed: signed, Label: tx.LabelInvalid, Status: tx.StatusInvalid, Unchecked: true}
	blk, err := ledger.NewBlock(nil, []ledger.Record{rec}, 0)
	if err != nil {
		t.Fatal(err)
	}
	argues, err := prov.ObserveBlock(blk, fx.bus)
	if err != nil {
		t.Fatal(err)
	}
	if argues != 0 {
		t.Fatal("provider argued for its own invalid transaction")
	}
}

// TestGovernorAcceptBlockChecksProposer: a block whose proposer is not
// a roster governor is refused, one a roster governor signed is taken.
func TestGovernorAcceptBlockChecksProposer(t *testing.T) {
	fx := newFixture(t, nil)
	gov := fx.governor
	govMem := fx.roster.Governors[0]
	blk, err := ledger.NewBlock(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	stranger := blk
	stranger.SignAs("governor/9", govMem.PrivateKey)
	if err := gov.AcceptBlock(stranger); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("proposer outside the roster: error = %v, want ErrBadMessage", err)
	}
	blk.SignAs(govMem.ID, govMem.PrivateKey)
	if err := gov.AcceptBlock(blk); err != nil {
		t.Fatalf("AcceptBlock() error = %v", err)
	}
}

func TestHonestBehaviorDefaults(t *testing.T) {
	var b HonestBehavior
	r := b.React(tx.LabelInvalid, nil)
	if !r.Report || r.Label != tx.LabelInvalid {
		t.Fatalf("HonestBehavior.React = %+v", r)
	}
	if b.ForgeCount(nil) != 0 {
		t.Fatal("HonestBehavior forges")
	}
}
