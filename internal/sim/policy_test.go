package sim

import (
	"math"
	"testing"

	"repchain/internal/reputation"
	"repchain/internal/tx"
)

func makeReports(labels ...tx.Label) []reputation.Report {
	out := make([]reputation.Report, len(labels))
	for i, l := range labels {
		out[i] = reputation.Report{Collector: i, Label: l}
	}
	return out
}

// policySim builds a simulation whose screen runs the named policy.
func policySim(t *testing.T, policy string, f float64, seed int64) *Sim {
	t.Helper()
	cfg := baseConfig()
	cfg.Policy = policy
	cfg.Params.F = f
	cfg.Seed = seed
	return mustSim(t, cfg)
}

// uncheckedRate screens the same reports trials times and returns the
// fraction left unchecked.
func uncheckedRate(t *testing.T, s *Sim, reports []reputation.Report, trials int) float64 {
	t.Helper()
	unchecked := 0
	for i := 0; i < trials; i++ {
		check, err := s.screen(0, reports)
		if err != nil {
			t.Fatal(err)
		}
		if !check {
			unchecked++
		}
	}
	return float64(unchecked) / float64(trials)
}

func TestCheckAllAlwaysChecks(t *testing.T) {
	s := policySim(t, "check-all", 0.5, 1)
	if got := uncheckedRate(t, s, makeReports(tx.LabelInvalid, tx.LabelInvalid), 50); got != 0 {
		t.Fatalf("check-all skipped %.2f of verifications", got)
	}
}

func TestUniformCheckRate(t *testing.T) {
	s := policySim(t, "uniform-random", 0.8, 2)
	// All -1 labels, uniform pick: unchecked prob = f/x = 0.2.
	reports := makeReports(tx.LabelInvalid, tx.LabelInvalid, tx.LabelInvalid, tx.LabelInvalid)
	if got := uncheckedRate(t, s, reports, 40000); math.Abs(got-0.2) > 0.015 {
		t.Fatalf("unchecked rate = %.4f, want ≈ 0.2", got)
	}
}

func TestUniformAlwaysChecksValidDraws(t *testing.T) {
	s := policySim(t, "uniform-random", 0.99, 3)
	if got := uncheckedRate(t, s, makeReports(tx.LabelValid), 100); got != 0 {
		t.Fatalf("+1 draw must always check; %.2f unchecked", got)
	}
}

func TestMajorityVote(t *testing.T) {
	s := policySim(t, "majority-vote", 0.5, 4)
	if got := uncheckedRate(t, s, makeReports(tx.LabelValid, tx.LabelValid, tx.LabelInvalid), 100); got != 0 {
		t.Fatalf("majority-valid transaction left unchecked %.2f of the time", got)
	}
	// Ties break to invalid, so the f-coin skips some.
	if got := uncheckedRate(t, s, makeReports(tx.LabelValid, tx.LabelInvalid), 100); got == 0 {
		t.Fatal("tie never left unchecked: did not break to invalid")
	}
}

func TestMajorityUncheckedRate(t *testing.T) {
	s := policySim(t, "majority-vote", 0.6, 5)
	reports := makeReports(tx.LabelInvalid, tx.LabelInvalid, tx.LabelInvalid)
	if got := uncheckedRate(t, s, reports, 40000); math.Abs(got-0.6) > 0.015 {
		t.Fatalf("unchecked rate = %.4f, want ≈ 0.6", got)
	}
}
