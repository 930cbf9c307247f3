package sim

import (
	"fmt"
	"math"

	"repchain/internal/reputation"
)

// E12TheoremFour checks the paper's core combined theorem directly:
// with N transactions entering the network, the governor's accumulated
// expected loss on one provider's unchecked transactions satisfies
// L ≤ S + O(√((f+δ)N)) with probability ≥ 1 − e^{−2δ²N}, where S is
// the best collector's loss on those transactions. The experiment
// sweeps N and reports L, S, and the normalized excess
// (L−S)/√((f+δ)N), which must stay bounded.
func E12TheoremFour(seed int64, scale int) (Table, error) {
	const (
		r     = 8
		delta = 0.05
	)
	t := Table{
		ID:     "E12",
		Title:  "Theorem 4 — L ≤ S + O(√((f+δ)N)) on unchecked transactions",
		Header: []string{"N", "unchecked", "L (governor)", "S (best collector)", "(L−S)/√((f+δ)N)", "failure prob bound"},
		Notes: []string{
			"1 provider, r=8 (collector 0 errs 5%, peers misreport 40%), f=0.8, δ=0.05; L = Σ L_t over reveals, S = best collector's accumulated loss",
			"expected shape: normalized excess roughly flat (the √ scaling) and small; the Hoeffding failure probability e^(−2δ²N) vanishes with N",
		},
	}
	for _, n := range []int{2000, 8000, 32000} {
		N := n * scale
		params := reputation.DefaultParams()
		params.F = 0.8
		models := noisyPeers(r, 0.4, 0)
		models[0].Misreport = 0.05
		_, res, err := runSim(Config{
			Spec:      theorem1Spec(),
			Params:    params,
			ValidFrac: 0.6,
			ArgueProb: 1,
			Models:    models,
			Seed:      seed,
		}, N)
		if err != nil {
			return Table{}, err
		}
		l := res.ExpectedLoss
		best := res.BestLoss[0]
		norm := (l - best) / math.Sqrt((params.F+delta)*float64(N))
		t.Rows = append(t.Rows, []string{
			d(N), d(res.Unchecked), f1(l), f1(best), f3(norm),
			g4(math.Exp(-2 * delta * delta * float64(N))),
		})
	}
	return t, nil
}

// E11TurncoatAttack probes a behaviour the poster does not analyze but
// any deployment faces: the whitewashing attack. The adversary's
// collectors behave perfectly until they dominate the screening draw,
// then flip to constant misreporting. The experiment measures the
// damage window — how many mistakes the governor makes between the
// turn and the mechanism's recovery — as the honest phase lengthens.
//
// This is an extension experiment (DESIGN.md §5): it stresses the
// mechanism's adaptivity, the property the multiplicative γ_tx decay
// provides and an additive scheme would lack.
func E11TurncoatAttack(seed int64, scale int) (Table, error) {
	const r = 8
	T := 12000 * scale
	t := Table{
		ID:     "E11",
		Title:  "Turncoat (whitewashing) attack — damage bounded despite banked reputation",
		Header: []string{"honest phase W", "mistakes", "mistakes after turn", "regret", "final turncoat weight", "final honest weight"},
		Notes: []string{
			fmt.Sprintf("T=%d, r=8: 7 collectors act honest for W transactions then always lie; collector 0 stays honest; f=0.8", T),
			"expected shape: post-turn mistakes stay bounded and roughly constant in W — banked multiplicative reputation buys the adversary only a logarithmic damage window, because each wrong label multiplies its weight by γ_tx regardless of history",
		},
	}
	for _, w := range []int{0, 500, 2000, 8000} {
		models := make([]CollectorModel, r)
		for c := 1; c < r; c++ {
			if w == 0 {
				models[c].Misreport = 1 // degenerate case: lie from the start
			} else {
				models[c].TurncoatAfter = w
			}
		}
		params := reputation.DefaultParams()
		params.F = 0.8
		cfg := Config{
			Spec:      theorem1Spec(),
			Params:    params,
			ValidFrac: 0.6,
			ArgueProb: 1,
			Models:    models,
			Seed:      seed,
		}
		s, err := New(cfg)
		if err != nil {
			return Table{}, err
		}
		// Run to the turn, snapshot, then run the attack phase.
		preTurn := w
		if preTurn > T {
			preTurn = T
		}
		for i := 0; i < preTurn; i++ {
			if err := s.Step(); err != nil {
				return Table{}, err
			}
		}
		snap, err := s.Snapshot()
		if err != nil {
			return Table{}, err
		}
		mistakesAtTurn := snap.Mistakes
		for i := preTurn; i < T; i++ {
			if err := s.Step(); err != nil {
				return Table{}, err
			}
		}
		if err := s.FlushReveals(); err != nil {
			return Table{}, err
		}
		res, err := s.Snapshot()
		if err != nil {
			return Table{}, err
		}
		turncoatW, err := s.Table().Weight(0, 1)
		if err != nil {
			return Table{}, err
		}
		honestW, err := s.Table().Weight(0, 0)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			d(w), d(res.Mistakes), d(res.Mistakes - mistakesAtTurn),
			f1(res.Regret[0]), g4(turncoatW), g4(honestW),
		})
	}
	return t, nil
}
