package sim

import (
	"fmt"
	"math"

	"repchain/internal/identity"
	"repchain/internal/reputation"
	"repchain/internal/rwm"
)

// theorem1Spec is the Theorem 1 setting: one provider overseen by
// r = 8 collectors, one of which is well-behaved.
func theorem1Spec() identity.TopologySpec {
	return identity.TopologySpec{Providers: 1, Collectors: 8, Degree: 8}
}

// noisyPeers builds r collector models: index 0 honest, the rest
// misbehaving at the given rates.
func noisyPeers(r int, misreport, conceal float64) []CollectorModel {
	models := make([]CollectorModel, r)
	for i := 1; i < r; i++ {
		models[i] = CollectorModel{Misreport: misreport, Conceal: conceal}
	}
	return models
}

// E1RegretSqrtT measures Theorem 1: the governor's regret
// L_T − S^min_T grows as O(√T). The ratio regret/√T must stay roughly
// flat while regret/T shrinks, and regret must stay below the explicit
// bound 16·√(log₂(r)·T).
func E1RegretSqrtT(seed int64, scale int) (Table, error) {
	const r = 8
	horizons := []int{300, 600, 1200, 2400, 4800}
	if scale > 1 {
		for i := range horizons {
			horizons[i] *= scale
		}
	}
	t := Table{
		ID:     "E1",
		Title:  "Theorem 1 — regret L_T − S^min_T = O(√T)",
		Header: []string{"T", "beta", "L_T", "S_min", "regret", "bound 16√(log2(r)·T)", "regret/√T"},
		Notes: []string{
			"workload: 1 provider, r=8 collectors (collector 0 honest, peers misreport 40% / conceal 20%), all reveals immediate",
			"expected shape: regret ≤ bound for every T; regret/√T roughly flat (sub-linear growth)",
		},
	}
	for _, T := range horizons {
		params := reputation.DefaultParams()
		params.Beta = rwm.RecommendedBeta(r, T)
		_, res, err := runSim(Config{
			Spec:      theorem1Spec(),
			Params:    params,
			ValidFrac: 0.5,
			ArgueProb: 1,
			Models:    noisyPeers(r, 0.4, 0.2),
			Seed:      seed,
		}, T)
		if err != nil {
			return Table{}, err
		}
		regret := res.Regret[0]
		bound := rwm.TheoremOneBound(r, T)
		t.Rows = append(t.Rows, []string{
			d(T), f3(params.Beta), f1(res.ExpectedLoss), f1(res.BestLoss[0]),
			f1(regret), f1(bound), f3(regret / math.Sqrt(float64(T))),
		})
	}
	return t, nil
}

// E2UncheckedVsF measures Lemma 2: Pr[tx unchecked] ≤ f, even under
// fully adversarial labeling.
func E2UncheckedVsF(seed int64, scale int) (Table, error) {
	T := 20000 * scale
	t := Table{
		ID:     "E2",
		Title:  "Lemma 2 — unchecked fraction ≤ f",
		Header: []string{"f", "workload", "unchecked frac", "bound f", "holds"},
		Notes: []string{
			"workloads: 'adversarial' = all transactions invalid (maximal -1 labels); 'mixed' = 50% valid with 30% misreporting peers",
			"expected shape: measured fraction below f everywhere; adversarial workload approaches f/r ≤ f",
		},
	}
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, workload := range []string{"adversarial", "mixed"} {
			params := reputation.DefaultParams()
			params.F = f
			cfg := Config{
				Spec:      theorem1Spec(),
				Params:    params,
				ArgueProb: 1,
				Seed:      seed,
			}
			if workload == "adversarial" {
				cfg.ValidFrac = 0
			} else {
				cfg.ValidFrac = 0.5
				cfg.Models = noisyPeers(8, 0.3, 0)
			}
			_, res, err := runSim(cfg, T)
			if err != nil {
				return Table{}, err
			}
			holds := "yes"
			if res.UncheckedFrac > f {
				holds = "NO"
			}
			t.Rows = append(t.Rows, []string{f3(f), workload, f3(res.UncheckedFrac), f3(f), holds})
		}
	}
	return t, nil
}

// E3HoeffdingTail measures Theorem 3: across independent trials, the
// fraction with more than (f+δ)N unchecked transactions stays below
// e^{−2δ²N}.
func E3HoeffdingTail(seed int64, scale int) (Table, error) {
	trials := 200 * scale
	t := Table{
		ID:     "E3",
		Title:  "Theorem 3 — Hoeffding tail on the unchecked count",
		Header: []string{"N", "delta", "bound e^(-2δ²N)", "empirical tail", "holds"},
		Notes: []string{
			fmt.Sprintf("%d independent trials per row, all-invalid workload at f=0.5 (the worst case for skipping)", trials),
			"expected shape: empirical tail ≤ bound on every row; for large δ·√N both approach 0",
		},
	}
	params := reputation.DefaultParams()
	params.F = 0.5
	for _, N := range []int{500, 2000} {
		for _, delta := range []float64{0.02, 0.05, 0.1} {
			exceed := 0
			for trial := 0; trial < trials; trial++ {
				_, res, err := runSim(Config{
					Spec:      theorem1Spec(),
					Params:    params,
					ValidFrac: 0,
					ArgueProb: 1,
					Seed:      seed + int64(trial)*7919,
				}, N)
				if err != nil {
					return Table{}, err
				}
				if float64(res.Unchecked) > (params.F+delta)*float64(N) {
					exceed++
				}
			}
			bound := math.Exp(-2 * delta * delta * float64(N))
			emp := float64(exceed) / float64(trials)
			holds := "yes"
			if emp > bound {
				holds = "NO"
			}
			t.Rows = append(t.Rows, []string{d(N), f3(delta), g4(bound), g4(emp), holds})
		}
	}
	return t, nil
}

// E5PolicyComparison compares the paper's mechanism against the
// baselines on identical adversarial workloads: governor mistakes and
// verification cost.
func E5PolicyComparison(seed int64, scale int) (Table, error) {
	T := 20000 * scale
	t := Table{
		ID:     "E5",
		Title:  "Reputation screening vs baselines — mistakes and verification cost",
		Header: []string{"policy", "adversary", "mistakes", "checked frac", "unchecked frac"},
		Notes: []string{
			fmt.Sprintf("T=%d transactions, 1 provider, r=8 (collector 0 honest), f=0.8, 60%% valid workload", T),
			"expected shape: reputation-rwm ≪ uniform-random mistakes at comparable check rates; check-all has 0 mistakes at 100% checks; majority-vote collapses once liars outnumber honest reporters",
		},
	}
	adversaries := []struct {
		name   string
		models []CollectorModel
	}{
		{"3of8 lie 80%", append(noisyPeers(4, 0.8, 0), make([]CollectorModel, 4)...)},
		{"7of8 lie 80%", noisyPeers(8, 0.8, 0)},
		{"7of8 conceal 50%", noisyPeers(8, 0, 0.5)},
	}
	for _, policy := range []string{"reputation-rwm", "check-all", "uniform-random", "majority-vote"} {
		for _, adv := range adversaries {
			params := reputation.DefaultParams()
			params.F = 0.8
			_, res, err := runSim(Config{
				Spec:      theorem1Spec(),
				Params:    params,
				Policy:    policy,
				ValidFrac: 0.6,
				ArgueProb: 1,
				Models:    adv.models,
				Seed:      seed,
			}, T)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				policy, adv.name, d(res.Mistakes), f3(res.CheckFrac), f3(res.UncheckedFrac),
			})
		}
	}
	return t, nil
}

// E6IncentiveCurve measures the incentive claim of §4.2: a collector's
// revenue share strictly decreases in its misbehaviour rate.
func E6IncentiveCurve(seed int64, scale int) (Table, error) {
	T := 10000 * scale
	t := Table{
		ID:     "E6",
		Title:  "Incentives — revenue share vs misbehaviour rate",
		Header: []string{"misreport p", "conceal p", "share(collector 0)", "share(honest peer)", "log-revenue gap/1k tx"},
		Notes: []string{
			fmt.Sprintf("T=%d, 2 providers, 4 collectors all linked; collector 0 sweeps its misbehaviour, peers stay honest; µ=1.1, ν=2", T),
			"expected shape: collector 0's share strictly decreasing in p (the exponential revenue rule of §3.4.3 is effectively winner-take-all over long horizons), and the per-1000-transaction log-revenue gap to an honest peer grows smoothly with p",
		},
	}
	for _, p := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		for _, mode := range []string{"misreport", "conceal"} {
			models := make([]CollectorModel, 4)
			if mode == "misreport" {
				models[0].Misreport = p
			} else {
				models[0].Conceal = p
			}
			s, res, err := runSim(Config{
				Spec:      identity.TopologySpec{Providers: 2, Collectors: 4, Degree: 4},
				Params:    reputation.DefaultParams(),
				ValidFrac: 0.5,
				ArgueProb: 1,
				Models:    models,
				Seed:      seed,
			}, T)
			if err != nil {
				return Table{}, err
			}
			mis, con := "0.000", "0.000"
			if mode == "misreport" {
				mis = f3(p)
			} else {
				con = f3(p)
			}
			lr0, err := s.Table().LogRevenue(0)
			if err != nil {
				return Table{}, err
			}
			lr1, err := s.Table().LogRevenue(1)
			if err != nil {
				return Table{}, err
			}
			gap := (lr1 - lr0) / float64(T) * 1000
			t.Rows = append(t.Rows, []string{
				mis, con, f3(res.RevenueShares[0]), f3(res.RevenueShares[1]), f3(gap),
			})
		}
	}
	return t, nil
}

// E8AdversaryFraction measures the robustness claim: the guarantee
// holds "as long as there exists a collector who behaves well". Sweep
// the number of always-lying collectors from 0 to r−1.
func E8AdversaryFraction(seed int64, scale int) (Table, error) {
	const r = 8
	T := 8000 * scale
	t := Table{
		ID:     "E8",
		Title:  "Robustness — governor loss vs number of malicious collectors",
		Header: []string{"liars", "honest", "mistakes", "regret", "bound", "unchecked frac"},
		Notes: []string{
			fmt.Sprintf("T=%d, r=8, liars always misreport; f=0.8", T),
			"expected shape: regret stays under the bound while ≥1 honest collector remains; mistakes grow with the liar count but stay sublinear in T",
		},
	}
	for liars := 0; liars < r; liars++ {
		models := make([]CollectorModel, r)
		for i := 0; i < liars; i++ {
			models[r-1-i].Misreport = 1
		}
		params := reputation.DefaultParams()
		params.F = 0.8
		params.Beta = rwm.RecommendedBeta(r, T)
		_, res, err := runSim(Config{
			Spec:      theorem1Spec(),
			Params:    params,
			ValidFrac: 0.6,
			ArgueProb: 1,
			Models:    models,
			Seed:      seed,
		}, T)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			d(liars), d(r - liars), d(res.Mistakes), f1(res.Regret[0]),
			f1(rwm.TheoremOneBound(r, T)), f3(res.UncheckedFrac),
		})
	}
	return t, nil
}

// E9ArgueLatency measures the discussion in §4.2: the latency bound U
// "only induces a latency on the updating of reputation" — regret
// degrades gracefully, not catastrophically, as reveals lag.
func E9ArgueLatency(seed int64, scale int) (Table, error) {
	const r = 8
	T := 6000 * scale
	t := Table{
		ID:     "E9",
		Title:  "Argue latency U — reveal delay only defers reputation updates",
		Header: []string{"U (reveal delay)", "mistakes", "regret", "expected loss L_T"},
		Notes: []string{
			fmt.Sprintf("T=%d, r=8, peers misreport 50%%; reveals for a provider lag U unchecked transactions", T),
			"expected shape: metrics grow modestly and smoothly in U (latency, not failure)",
		},
	}
	for _, u := range []int{0, 4, 16, 64, 256} {
		params := reputation.DefaultParams()
		params.F = 0.8
		_, res, err := runSim(Config{
			Spec:        theorem1Spec(),
			Params:      params,
			ValidFrac:   0.6,
			ArgueProb:   1,
			RevealDelay: u,
			Models:      noisyPeers(r, 0.5, 0),
			Seed:        seed,
		}, T)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{d(u), d(res.Mistakes), f1(res.Regret[0]), f1(res.ExpectedLoss)})
	}
	return t, nil
}

// E10BetaAblation sweeps β at a fixed horizon and marks the paper's
// recommended tuning.
func E10BetaAblation(seed int64, scale int) (Table, error) {
	const r = 8
	T := 4800 * scale
	rec := rwm.RecommendedBeta(r, T)
	bound := rwm.TheoremOneBound(r, T)
	t := Table{
		ID:     "E10",
		Title:  "β ablation — every β honours the Theorem 1 bound; the paper's tuning targets the adversarial worst case",
		Header: []string{"beta", "regret", "regret/bound", "mistakes", "is paper's choice"},
		Notes: []string{
			fmt.Sprintf("T=%d, r=8; the best collector errs 10%%, peers misreport 40%% / conceal 20%%; bound = 16·√(log₂(r)·T) = %.0f", T, bound),
			"expected shape: regret ≪ bound everywhere, comfortably so at the paper's β",
			"finding: under *stationary* adversaries smaller β separates experts faster and wins empirically; the paper's β = 1−4√(log₂ r/T) is the worst-case (adversarial-sequence) tuning from the RWM analysis, not the empirical optimum here — recorded as a caveat in EXPERIMENTS.md",
		},
	}
	betas := []float64{0.1, 0.3, 0.5, 0.7, rec, 0.95, 0.99}
	for _, beta := range betas {
		params := reputation.DefaultParams()
		params.Beta = beta
		models := noisyPeers(r, 0.4, 0.2)
		models[0].Misreport = 0.1 // the best expert is good, not perfect
		_, res, err := runSim(Config{
			Spec:      theorem1Spec(),
			Params:    params,
			ValidFrac: 0.5,
			ArgueProb: 1,
			Models:    models,
			Seed:      seed,
		}, T)
		if err != nil {
			return Table{}, err
		}
		mark := ""
		if beta == rec {
			mark = "<-- paper"
		}
		t.Rows = append(t.Rows, []string{
			f3(beta), f1(res.Regret[0]), f3(res.Regret[0] / bound), d(res.Mistakes), mark,
		})
	}
	return t, nil
}
