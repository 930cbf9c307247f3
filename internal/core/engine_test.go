package core

import (
	"errors"
	"fmt"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// oracleValidator implements validate(tx) for tests: a transaction is
// valid iff its first payload byte is 1. Providers set the byte, so
// ground truth is shared by construction.
var oracleValidator = tx.ValidatorFunc(func(t tx.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

func payloadFor(valid bool, n int) []byte {
	b := byte(0)
	if valid {
		b = 1
	}
	return []byte{b, byte(n), byte(n >> 8)}
}

func defaultConfig() Config {
	return Config{
		Spec:        identity.TopologySpec{Providers: 4, Collectors: 4, Degree: 2},
		Governors:   3,
		Params:      reputation.DefaultParams(),
		BlockLimit:  0,
		ArgueWindow: 16,
		MaxDelay:    2,
		Seed:        42,
		Validator:   oracleValidator,
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	return e
}

// submitRound submits n transactions spread across providers, with
// validFrac of them valid, and returns the submitted IDs with their
// ground truth.
func submitRound(t *testing.T, e *Engine, n int, round int, invalidEvery int) map[crypto.Hash]bool {
	t.Helper()
	out := make(map[crypto.Hash]bool, n)
	providers := e.Roster().Topology.Providers()
	for i := 0; i < n; i++ {
		valid := invalidEvery == 0 || (i%invalidEvery != invalidEvery-1)
		signed, err := e.SubmitTx(i%providers, "test/tx", payloadFor(valid, round*1000+i), valid)
		if err != nil {
			t.Fatalf("SubmitTx() error = %v", err)
		}
		out[signed.ID()] = valid
	}
	return out
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero governors", func(c *Config) { c.Governors = 0 }},
		{"nil validator", func(c *Config) { c.Validator = nil }},
		{"bad params", func(c *Config) { c.Params.F = 2 }},
		{"bad topology", func(c *Config) { c.Spec.Degree = 99 }},
		{"behaviour count", func(c *Config) { c.Behaviors = []node.Behavior{nil} }},
		{"stake count", func(c *Config) { c.Stakes = []uint64{1} }},
		{"snapshot cadence without chain dir", func(c *Config) { c.SnapshotEvery = 2 }},
		{"segment bytes without chain dir", func(c *Config) { c.SegmentBytes = 512 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := defaultConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("New() accepted invalid config")
			}
		})
	}
}

// TestProviderSkipsUndecodableBlock: a block frame a provider cannot
// decode is skipped and counted, as over TCP; the round still commits.
func TestProviderSkipsUndecodableBlock(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	submitRound(t, e, 8, 0, 4)
	from, to := e.Roster().Governors[0].ID, e.Roster().Providers[0].ID
	if err := e.Bus().Send(from, to, network.KindBlock, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunRound(); err != nil {
		t.Fatalf("RunRound() with a junk block frame at a provider: %v", err)
	}
	if got := e.Metrics().CounterVec("node.blocks_ignored_total", "reason").With("decode").Value(); got != 1 {
		t.Fatalf("node.blocks_ignored_total{reason=decode} = %d, want 1", got)
	}
}

func TestEngineRunsRounds(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	const rounds = 8
	for r := 0; r < rounds; r++ {
		submitRound(t, e, 12, r, 4)
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("RunRound(%d) error = %v", r, err)
		}
		if res.Serial != uint64(r+1) {
			t.Fatalf("round %d produced serial %d", r, res.Serial)
		}
		if res.Leader < 0 || res.Leader >= e.Governors() {
			t.Fatalf("leader %d out of range", res.Leader)
		}
	}
	if e.Round() != rounds {
		t.Fatalf("Round() = %d", e.Round())
	}
	for j := 0; j < e.Governors(); j++ {
		if got := e.Governor(j).Store().Height(); got != rounds {
			t.Fatalf("governor %d height = %d, want %d", j, got, rounds)
		}
	}
}

// TestPropertyAgreement (P1): any two replicas retrieve identical
// blocks for every serial number.
func TestPropertyAgreement(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	for r := 0; r < 5; r++ {
		submitRound(t, e, 10, r, 3)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	ref := e.Governor(0).Store()
	for j := 1; j < e.Governors(); j++ {
		other := e.Governor(j).Store()
		if other.Height() != ref.Height() {
			t.Fatalf("governor %d height %d, governor 0 height %d", j, other.Height(), ref.Height())
		}
		for s := uint64(1); s <= ref.Height(); s++ {
			a, err := ref.Get(s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := other.Get(s)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hash() != b.Hash() {
				t.Fatalf("Agreement violated at serial %d between governors 0 and %d", s, j)
			}
		}
	}
}

// TestPropertyChainIntegrityAndNoSkipping (P2, P3): hash links hold
// and serials increase one by one from 1.
func TestPropertyChainIntegrityAndNoSkipping(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	for r := 0; r < 6; r++ {
		submitRound(t, e, 8, r, 4)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < e.Governors(); j++ {
		store := e.Governor(j).Store()
		if err := ledger.VerifyChain(store); err != nil {
			t.Fatalf("governor %d chain: %v", j, err)
		}
		var prev crypto.Hash
		for s := uint64(1); s <= store.Height(); s++ {
			b, err := store.Get(s)
			if err != nil {
				t.Fatalf("No Skipping violated: %v", err)
			}
			if b.Serial != s {
				t.Fatalf("serial %d at position %d", b.Serial, s)
			}
			if b.PrevHash != prev {
				t.Fatalf("Chain Integrity violated at serial %d", s)
			}
			prev = b.Hash()
		}
	}
}

// TestPropertyAlmostNoCreation (P4): every transaction in the chain
// was broadcast by a registered provider (here: submitted through the
// engine), and forged uploads never enter the chain.
func TestPropertyAlmostNoCreation(t *testing.T) {
	cfg := defaultConfig()
	// Collector 0 forges aggressively.
	cfg.Behaviors = []node.Behavior{
		node.ProbBehavior{Forge: 1},
		nil, nil, nil,
	}
	e := newTestEngine(t, cfg)
	submitted := make(map[crypto.Hash]bool)
	for r := 0; r < 6; r++ {
		for id := range submitRound(t, e, 10, r, 4) {
			submitted[id] = true
		}
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	store := e.Governor(0).Store()
	for s := uint64(1); s <= store.Height(); s++ {
		b, err := store.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range b.Records {
			if !submitted[rec.Signed.ID()] {
				t.Fatalf("block %d contains unsubmitted transaction %s: creation!", s, rec.Signed.ID().Short())
			}
		}
	}
	// The forging collector must have been penalized.
	if got := e.Governor(0).Table().Forge(0); got >= 0 {
		t.Fatalf("forging collector's forge score = %v, want negative", got)
	}
	if e.Governor(0).Stats().ForgeriesDetected == 0 {
		t.Fatal("no forgeries detected despite a forging collector")
	}
}

// TestPropertyValidity (P5): every valid transaction from an active
// provider eventually appears valid in a block, even when most
// collectors misreport — the argue path recovers it.
func TestPropertyValidity(t *testing.T) {
	cfg := defaultConfig()
	cfg.Params.F = 0.9 // aggressive skipping: many unchecked
	// Three of four collectors always lie; collector 3 is honest.
	cfg.Behaviors = []node.Behavior{
		node.ProbBehavior{Misreport: 1},
		node.ProbBehavior{Misreport: 1},
		node.ProbBehavior{Misreport: 1},
		nil,
	}
	e := newTestEngine(t, cfg)
	for r := 0; r < 4; r++ {
		submitRound(t, e, 12, r, 0) // all valid
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// Drain rounds with no new submissions so argues resolve.
	for r := 0; r < 6; r++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < e.Roster().Topology.Providers(); k++ {
		if pending := e.Provider(k).PendingValid(); pending != 0 {
			t.Fatalf("provider %d still has %d valid transactions unsettled: Validity violated", k, pending)
		}
	}
}

func TestArgueRestoresTransactionsAndPunishesLiars(t *testing.T) {
	cfg := defaultConfig()
	cfg.Spec = identity.TopologySpec{Providers: 2, Collectors: 4, Degree: 4}
	cfg.Params.F = 0.9
	cfg.Behaviors = []node.Behavior{
		node.ProbBehavior{Misreport: 1}, // always lies
		node.ProbBehavior{Misreport: 1},
		node.ProbBehavior{Misreport: 1},
		nil, // honest
	}
	// Only transactions governor 0's own screening left unchecked reveal
	// to it, and which those are is a draw: over 300 seeds, six
	// submission rounds ended with some provider's liars not yet below
	// the honest collector on governor 0 for about one seed in four,
	// twelve for one in thirty to fifty.
	e := newTestEngine(t, cfg)
	for r := 0; r < 12; r++ {
		submitRound(t, e, 10, r, 0)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	gov := e.Governor(0)
	if gov.Stats().ArguesAccepted == 0 {
		t.Fatal("no argues were accepted; the recovery path never ran")
	}
	// After reveals, the liars' weights must be below the honest
	// collector's for every provider they share.
	tab := gov.Table()
	for k := 0; k < 2; k++ {
		honest, err := tab.Weight(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			liar, err := tab.Weight(k, c)
			if err != nil {
				t.Fatal(err)
			}
			if liar >= honest {
				t.Fatalf("provider %d: liar %d weight %v ≥ honest weight %v", k, c, liar, honest)
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []crypto.Hash {
		e := newTestEngine(t, defaultConfig())
		var hashes []crypto.Hash
		for r := 0; r < 4; r++ {
			submitRound(t, e, 8, r, 3)
			res, err := e.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, res.Block.Hash())
		}
		return hashes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d produced different blocks across identical runs", i)
		}
	}
}

// TestBlockLimitCarryover: a burst four blocks long commits in full
// whichever governors lead the rounds after it — the overflow waits in
// every pool, not only the first leader's — and no block exceeds
// b_limit.
func TestBlockLimitCarryover(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := defaultConfig()
		cfg.BlockLimit = 5
		cfg.Seed = seed
		e := newTestEngine(t, cfg)
		pending := submitRound(t, e, 20, 0, 0) // 20 valid txs
		for r := 0; r < 12; r++ {
			res, err := e.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Block.Records) > 5 {
				t.Fatalf("seed %d: block %d has %d records, limit 5", seed, res.Serial, len(res.Block.Records))
			}
			for _, rec := range res.Block.Records {
				delete(pending, rec.Signed.ID())
			}
		}
		if len(pending) != 0 {
			t.Errorf("seed %d: %d of 20 transactions never committed in 12 rounds", seed, len(pending))
		}
	}
}

func TestStakeTransform(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{5, 3, 2}
	e := newTestEngine(t, cfg)
	if err := e.SubmitStakeTransfer(0, 2, 2); err != nil {
		t.Fatalf("SubmitStakeTransfer() error = %v", err)
	}
	submitRound(t, e, 5, 0, 0)
	res, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.StakeBlock == nil {
		t.Fatal("no stake block committed")
	}
	want := []uint64{3, 3, 4}
	got := e.Stakes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stake state = %v, want %v", got, want)
		}
	}
	if len(res.StakeBlock.Endorsements) != 3 {
		t.Fatalf("stake block has %d endorsements, want 3", len(res.StakeBlock.Endorsements))
	}
}

// TestLeaderExpulsion: a round leader whose stake proposal lies is
// expelled by every governor; the transfer commits exactly once, by the
// following round, and the expelled governor never leads again.
func TestLeaderExpulsion(t *testing.T) {
	cfg := defaultConfig()
	cfg.Stakes = []uint64{4, 4, 4}
	// Rounds are deterministic: a dry run names round 1's leader.
	dry := newTestEngine(t, cfg)
	submitRound(t, dry, 5, 0, 0)
	first, err := dry.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	liar := first.Leader

	e := newTestEngine(t, cfg)
	e.governors[liar].CorruptNextStakeProposal()
	if err := e.SubmitStakeTransfer(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	submitRound(t, e, 5, 0, 0)
	res, err := e.RunRound()
	if err != nil {
		t.Fatalf("RunRound() error = %v", err)
	}
	if res.Leader != liar || res.StakeBlock != nil {
		t.Fatalf("round 1 led by %d (want %d), stake block %v (want none)", res.Leader, liar, res.StakeBlock)
	}
	for j, r := range e.governors {
		if got := r.Stakes(); got[liar] != 0 {
			t.Fatalf("governor %d stakes %v: governor %d not expelled", j, got, liar)
		}
	}
	// The next election excludes the liar, and its leader commits the
	// transfer; no later round commits it again.
	committed := 0
	for r := 0; r < 8; r++ {
		submitRound(t, e, 4, r+1, 0)
		res, err := e.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if res.Leader == liar {
			t.Fatalf("expelled governor %d led round %d", liar, res.Serial)
		}
		if res.StakeBlock != nil {
			committed++
			if r != 0 || fmt.Sprint(res.StakeBlock.NewState) != "[4 3 5]" {
				t.Fatalf("round %d stake block %v, want [4 3 5] in round 2 only", res.Serial, res.StakeBlock.NewState)
			}
		}
	}
	if committed != 1 {
		t.Fatalf("transfer committed %d times, want once", committed)
	}
}

func TestRevenueSharesFavourHonestUnderAdversaries(t *testing.T) {
	cfg := defaultConfig()
	cfg.Spec = identity.TopologySpec{Providers: 4, Collectors: 4, Degree: 4}
	cfg.Behaviors = []node.Behavior{
		nil,
		node.ProbBehavior{Misreport: 0.5},
		node.ProbBehavior{Conceal: 0.5},
		node.ProbBehavior{Forge: 0.8},
	}
	e := newTestEngine(t, cfg)
	for r := 0; r < 10; r++ {
		submitRound(t, e, 16, r, 3)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	shares, err := e.Governor(0).Table().RevenueShares()
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < 4; c++ {
		if shares[c] >= shares[0] {
			t.Fatalf("misbehaving collector %d share %.4f ≥ honest share %.4f", c, shares[c], shares[0])
		}
	}
}

func TestSubmitTxValidation(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	if _, err := e.SubmitTx(99, "k", nil, true); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("SubmitTx(99) error = %v, want ErrUnknownProvider", err)
	}
	if err := e.SubmitStakeTransfer(-1, 0, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("SubmitStakeTransfer(-1) error = %v, want ErrBadConfig", err)
	}
}

func TestEmptyRoundsStillCommitBlocks(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	for r := 0; r < 3; r++ {
		res, err := e.RunRound()
		if err != nil {
			t.Fatalf("empty RunRound() error = %v", err)
		}
		if len(res.Block.Records) != 0 {
			t.Fatalf("empty round produced %d records", len(res.Block.Records))
		}
	}
	if e.Governor(0).Store().Height() != 3 {
		t.Fatal("empty rounds did not extend the chain")
	}
}

func TestLeaderRotation(t *testing.T) {
	cfg := defaultConfig()
	cfg.Governors = 4
	cfg.Stakes = []uint64{2, 2, 2, 2}
	e := newTestEngine(t, cfg)
	leaders := make(map[int]int)
	for r := 0; r < 24; r++ {
		res, err := e.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		leaders[res.Leader]++
	}
	if len(leaders) < 2 {
		t.Fatalf("leadership never rotated: %v", leaders)
	}
}

func TestUploadsCounted(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	submitRound(t, e, 10, 0, 0)
	res, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	// 10 txs, each reaching 2 collectors → 20 uploads with honest
	// collectors.
	if res.Uploads != 20 {
		t.Fatalf("Uploads = %d, want 20", res.Uploads)
	}
}

func TestGovernorStatsAccumulate(t *testing.T) {
	e := newTestEngine(t, defaultConfig())
	for r := 0; r < 5; r++ {
		submitRound(t, e, 10, r, 3)
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Governor(0).Stats()
	if st.ReportsReceived == 0 || st.Checked == 0 {
		t.Fatalf("stats did not accumulate: %+v", st)
	}
	if st.ValidRecorded == 0 {
		t.Fatal("no valid transactions recorded")
	}
}

func ExampleEngine() {
	e, err := New(Config{
		Spec:        identity.TopologySpec{Providers: 2, Collectors: 2, Degree: 1},
		Governors:   2,
		Params:      reputation.DefaultParams(),
		ArgueWindow: 8,
		Seed:        1,
		Validator:   oracleValidator,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := e.SubmitTx(0, "example", []byte{1}, true); err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := e.RunRound()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("serial:", res.Serial, "records:", len(res.Block.Records))
	// Output: serial: 1 records: 1
}
