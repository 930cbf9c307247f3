package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repchain/internal/identity"
	"repchain/internal/reputation"
	"repchain/internal/rwm"
)

func baseConfig() Config {
	return Config{
		Spec:      identity.TopologySpec{Providers: 1, Collectors: 8, Degree: 8},
		Params:    reputation.DefaultParams(),
		ValidFrac: 0.7,
		ArgueProb: 1,
		Seed:      1,
	}
}

func mustSim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad topology", func(c *Config) { c.Spec.Degree = 0 }},
		{"bad params", func(c *Config) { c.Params.Beta = 2 }},
		{"bad valid frac", func(c *Config) { c.ValidFrac = 1.5 }},
		{"bad argue prob", func(c *Config) { c.ArgueProb = -1 }},
		{"bad reveal delay", func(c *Config) { c.RevealDelay = -1 }},
		{"model count", func(c *Config) { c.Models = []CollectorModel{{}} }},
		{"unknown policy", func(c *Config) { c.Policy = "nope" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("New() accepted invalid config")
			}
		})
	}
}

func TestHonestRunHasNoMistakes(t *testing.T) {
	s := mustSim(t, baseConfig())
	res, err := s.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 5000 {
		t.Fatalf("Transactions = %d", res.Transactions)
	}
	// With honest collectors, every unchecked transaction carries a
	// correct -1 consensus, so no valid transaction is ever unchecked:
	// a +1 draw is always checked, and honest reporters all say +1 for
	// valid transactions.
	if res.Mistakes != 0 {
		t.Fatalf("Mistakes = %d with honest collectors", res.Mistakes)
	}
	// Invalid transactions should frequently skip verification.
	if res.Unchecked == 0 {
		t.Fatal("no unchecked transactions: f has no effect")
	}
	if res.CheckFrac+res.UncheckedFrac > 1.0001 {
		t.Fatal("fractions exceed 1")
	}
}

// TestLemma2UncheckedBound: Pr[unchecked] ≤ f, so the empirical
// unchecked fraction must stay below f (plus noise) even under fully
// adversarial labeling.
func TestLemma2UncheckedBound(t *testing.T) {
	for _, f := range []float64{0.2, 0.5, 0.8} {
		cfg := baseConfig()
		cfg.Params.F = f
		cfg.ValidFrac = 0 // all invalid: -1 labels dominate, max skipping
		s := mustSim(t, cfg)
		res, err := s.Run(20000)
		if err != nil {
			t.Fatal(err)
		}
		if res.UncheckedFrac > f+0.02 {
			t.Fatalf("f=%v: unchecked fraction %.4f violates Lemma 2", f, res.UncheckedFrac)
		}
	}
}

// TestTheorem1RegretUnderBound is the simulation-level E1 check: one
// honest collector among noisy peers, regret under 16·√(log₂(r)·T).
func TestTheorem1RegretUnderBound(t *testing.T) {
	const T = 4000
	cfg := baseConfig()
	cfg.Params.Beta = rwm.RecommendedBeta(8, T)
	cfg.ValidFrac = 0.5
	cfg.Models = []CollectorModel{
		{}, // honest
		{Misreport: 0.4}, {Misreport: 0.3, Conceal: 0.2}, {Misreport: 0.5},
		{Conceal: 0.5}, {Misreport: 0.2}, {Misreport: 0.6}, {Conceal: 0.3},
	}
	s := mustSim(t, cfg)
	res, err := s.Run(T)
	if err != nil {
		t.Fatal(err)
	}
	bound := rwm.TheoremOneBound(8, T)
	if res.Regret[0] > bound {
		t.Fatalf("regret %v exceeds Theorem 1 bound %v", res.Regret[0], bound)
	}
}

func TestMisbehaviourCausesMistakesButReputationLimitsThem(t *testing.T) {
	// All collectors lie half the time except one honest: mistakes
	// happen, but far fewer under reputation than under uniform
	// sampling.
	run := func(policy string) Result {
		cfg := baseConfig()
		cfg.Policy = policy
		cfg.Params.F = 0.8
		cfg.ValidFrac = 0.6
		cfg.Models = []CollectorModel{
			{}, {Misreport: 0.8}, {Misreport: 0.8}, {Misreport: 0.8},
			{Misreport: 0.8}, {Misreport: 0.8}, {Misreport: 0.8}, {Misreport: 0.8},
		}
		s := mustSim(t, cfg)
		res, err := s.Run(20000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rep := run("reputation-rwm")
	uni := run("uniform-random")
	if rep.Mistakes == 0 {
		t.Log("reputation made zero mistakes (fine, but surprising)")
	}
	if rep.Mistakes >= uni.Mistakes {
		t.Fatalf("reputation mistakes %d ≥ uniform mistakes %d", rep.Mistakes, uni.Mistakes)
	}
	// CheckAll makes zero unchecked mistakes by construction.
	ca := run("check-all")
	if ca.Mistakes != 0 || ca.Unchecked != 0 {
		t.Fatalf("check-all produced mistakes=%d unchecked=%d", ca.Mistakes, ca.Unchecked)
	}
}

func TestConcealedByAllIsUnreported(t *testing.T) {
	cfg := baseConfig()
	cfg.Spec = identity.TopologySpec{Providers: 1, Collectors: 2, Degree: 2}
	cfg.Models = []CollectorModel{{Conceal: 1}, {Conceal: 1}}
	s := mustSim(t, cfg)
	res, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unreported != 100 {
		t.Fatalf("Unreported = %d, want 100", res.Unreported)
	}
	if res.Checked != 0 || res.Unchecked != 0 {
		t.Fatal("unreported transactions were screened")
	}
}

func TestRevealDelayDefersButDoesNotLoseReveals(t *testing.T) {
	cfg := baseConfig()
	cfg.RevealDelay = 50
	cfg.ValidFrac = 0
	cfg.Models = []CollectorModel{
		{}, {Misreport: 0.5}, {}, {}, {}, {}, {}, {},
	}
	s := mustSim(t, cfg)
	for i := 0; i < 500; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Reveals lag by up to 50 per provider.
	pendingBefore := len(s.pending[0])
	if pendingBefore == 0 || pendingBefore > 50 {
		t.Fatalf("pending = %d, want in (0, 50]", pendingBefore)
	}
	if err := s.FlushReveals(); err != nil {
		t.Fatal(err)
	}
	if len(s.pending[0]) != 0 {
		t.Fatal("FlushReveals left pending entries")
	}
}

func TestRevenueSharesReflectBehaviour(t *testing.T) {
	cfg := baseConfig()
	cfg.Spec = identity.TopologySpec{Providers: 2, Collectors: 4, Degree: 4}
	cfg.ValidFrac = 0.5
	cfg.Models = []CollectorModel{
		{},                // honest
		{Misreport: 0.6},  // liar
		{Conceal: 0.6},    // lazy
		{Misreport: 0.25}, // mildly dishonest
	}
	s := mustSim(t, cfg)
	res, err := s.Run(8000)
	if err != nil {
		t.Fatal(err)
	}
	shares := res.RevenueShares
	if len(shares) != 4 {
		t.Fatalf("shares = %v", shares)
	}
	if shares[0] <= shares[1] || shares[0] <= shares[2] || shares[0] <= shares[3] {
		t.Fatalf("honest collector does not earn the most: %v", shares)
	}
	if shares[3] <= shares[1] {
		t.Fatalf("mild misreporter earns no more than heavy misreporter: %v", shares)
	}
}

// TestDeterministicBySeed: one seed gives bitwise-equal results, also
// when several providers still hold reveals at the final flush and
// providers argue only half the time.
func TestDeterministicBySeed(t *testing.T) {
	delayed := baseConfig()
	delayed.Spec = identity.TopologySpec{Providers: 4, Collectors: 8, Degree: 8}
	delayed.Models = []CollectorModel{
		{}, {Misreport: 0.4}, {Misreport: 0.3, Conceal: 0.2}, {Misreport: 0.5},
		{Conceal: 0.5}, {Misreport: 0.2}, {Misreport: 0.6}, {Conceal: 0.3},
	}
	delayed.ValidFrac = 0.5
	delayed.RevealDelay = 64
	delayed.ArgueProb = 0.5
	delayed.Seed = 3
	for _, cfg := range []Config{baseConfig(), delayed} {
		t.Run(fmt.Sprintf("providers=%d", cfg.Spec.Providers), func(t *testing.T) {
			var first Result
			for i := 0; i < 20; i++ {
				s := mustSim(t, cfg)
				res, err := s.Run(2000)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Fatalf("run %d: %+v, run 0: %+v", i, res, first)
				}
			}
		})
	}
}

func TestSnapshotDoesNotAdvance(t *testing.T) {
	s := mustSim(t, baseConfig())
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	a, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a.Transactions != b.Transactions {
		t.Fatal("Snapshot advanced the simulation")
	}
}

func TestErrorsWrapSentinel(t *testing.T) {
	cfg := baseConfig()
	cfg.ValidFrac = 2
	_, err := New(cfg)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("error = %v, want ErrBadConfig", err)
	}
}

func BenchmarkSimStep(b *testing.B) {
	cfg := Config{
		Spec:      identity.TopologySpec{Providers: 8, Collectors: 8, Degree: 4},
		Params:    reputation.DefaultParams(),
		ValidFrac: 0.7,
		ArgueProb: 1,
		Seed:      1,
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
