package node

import (
	"strings"
	"testing"
)

// TestGovernorEvictOldestOnFullShard drives the eviction path directly:
// with a cap of one per provider, a second transaction from the same
// provider evicts the first (and its accumulated reports) instead of
// blocking.
func TestGovernorEvictOldestOnFullShard(t *testing.T) {
	fx := newFixtureOpts(t, nil, func(cfg *GovernorConfig) {
		cfg.MempoolCap = 1
	})
	first := fx.runUpload(t, 0, true)
	if got := fx.governor.mempoolDepth(); got != 1 {
		t.Fatalf("mempoolDepth() = %d after first upload, want 1", got)
	}
	second := fx.runUpload(t, 0, true)
	stats := fx.governor.Stats()
	if stats.EvictedTxs != 1 {
		t.Fatalf("EvictedTxs = %d, want 1", stats.EvictedTxs)
	}
	if got := fx.governor.mempoolDepth(); got != 1 {
		t.Fatalf("mempoolDepth() = %d after eviction, want 1", got)
	}
	// Screening sees only the survivor.
	recs, err := fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("screenRound returned %d records, want 1", len(recs))
	}
	if id := recs[0].Signed.ID(); id != second.ID() {
		t.Fatalf("screened %s, want the surviving tx %s (evicted %s)",
			id.Short(), second.ID().Short(), first.ID().Short())
	}
}

// TestGovernorMempoolConfigValidation checks the constructor rejects
// out-of-range mempool settings with errors naming the field.
func TestGovernorMempoolConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*GovernorConfig)
		want   string
	}{
		{"negative cap", func(c *GovernorConfig) { c.MempoolCap = -1 }, "mempool cap"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("fixture panicked: %v", r)
				}
			}()
			seedCfg := func(cfg *GovernorConfig) { tt.mutate(cfg) }
			err := tryNewGovernor(t, seedCfg)
			if err == nil {
				t.Fatal("NewGovernor accepted invalid mempool config")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not name %q", err, tt.want)
			}
		})
	}
}

// tryNewGovernor builds a governor config the way newFixtureOpts does
// but returns the constructor error instead of failing the test.
func tryNewGovernor(t *testing.T, mutate func(*GovernorConfig)) error {
	t.Helper()
	fx := newFixture(t, nil) // valid baseline fixture for roster/bus
	cfg := fx.governor.cfg
	mutate(&cfg)
	_, err := NewGovernor(cfg)
	return err
}

// TestGovernorShardedDrainCapped pins the drain cap: screenRound
// drains at most BlockLimit uploads and the backlog carries to the next
// round.
func TestGovernorShardedDrainCapped(t *testing.T) {
	fx := newFixtureOpts(t, nil, func(cfg *GovernorConfig) {
		cfg.BlockLimit = 2
	})
	for i := 0; i < 4; i++ {
		fx.runUpload(t, i%2, true)
	}
	recs, err := fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("capped screenRound returned %d records, want 2", len(recs))
	}
	if fx.governor.mempoolDepth() != 2 {
		t.Fatalf("mempoolDepth() = %d, want 2 carried over", fx.governor.mempoolDepth())
	}
	recs, err = fx.governor.screenRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || fx.governor.mempoolDepth() != 0 {
		t.Fatalf("second screenRound returned %d records, depth %d; want 2 and 0",
			len(recs), fx.governor.mempoolDepth())
	}
}
