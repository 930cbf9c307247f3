package reputation

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repchain/internal/identity"
	"repchain/internal/metrics"
	"repchain/internal/rwm"
	"repchain/internal/tx"
)

// newTestTable builds a table over the smallest interesting topology:
// 4 providers, 4 collectors, each provider linked with 2 collectors.
func newTestTable(t *testing.T, params Params) *Table {
	t.Helper()
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: 4, Collectors: 4, Degree: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(topo, params)
	if err != nil {
		t.Fatalf("NewTable() error = %v", err)
	}
	return tab
}

// fullTable builds a single-provider table with r collectors, the
// Theorem 1 setting.
func fullTable(t testing.TB, r int, params Params) *Table {
	t.Helper()
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: 1, Collectors: r, Degree: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(topo, params)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"defaults", DefaultParams(), false},
		{"beta zero", Params{Beta: 0, F: 0.5, Mu: 1.1, Nu: 2}, true},
		{"beta one", Params{Beta: 1, F: 0.5, Mu: 1.1, Nu: 2}, true},
		{"f zero", Params{Beta: 0.9, F: 0, Mu: 1.1, Nu: 2}, true},
		{"f one", Params{Beta: 0.9, F: 1, Mu: 1.1, Nu: 2}, true},
		{"mu one", Params{Beta: 0.9, F: 0.5, Mu: 1, Nu: 2}, true},
		{"nu below one", Params{Beta: 0.9, F: 0.5, Mu: 1.1, Nu: 0.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadParams) {
				t.Fatalf("Validate() error = %v, want ErrBadParams", err)
			}
		})
	}
}

func TestNewTableInitialState(t *testing.T) {
	tab := newTestTable(t, DefaultParams())
	if tab.Providers() != 4 || tab.Collectors() != 4 {
		t.Fatal("table dimensions wrong")
	}
	// All per-provider weights start at 1, scores at 0.
	for k := 0; k < 4; k++ {
		for _, c := range []int{0, 1, 2, 3} {
			w, err := tab.Weight(k, c)
			if errors.Is(err, ErrNotLinked) {
				continue
			}
			if err != nil {
				t.Fatalf("Weight(%d,%d) error = %v", k, c, err)
			}
			if w != 1 {
				t.Fatalf("Weight(%d,%d) = %v, want 1", k, c, w)
			}
		}
	}
	for c := 0; c < 4; c++ {
		if tab.Misreport(c) != 0 || tab.Forge(c) != 0 {
			t.Fatal("scores should start at zero")
		}
	}
}

func TestWeightErrors(t *testing.T) {
	tab := newTestTable(t, DefaultParams())
	if _, err := tab.Weight(99, 0); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("error = %v, want ErrUnknownProvider", err)
	}
	if _, err := tab.Weight(0, 99); !errors.Is(err, ErrUnknownCollector) {
		t.Fatalf("error = %v, want ErrUnknownCollector", err)
	}
}

func TestVectorLayout(t *testing.T) {
	tab := newTestTable(t, DefaultParams())
	// Collector 0 oversees s = 2 providers; the vector is
	// (w_1, w_2, misreport, forge) of length s+2 = 4.
	vec, err := tab.Vector(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 4 {
		t.Fatalf("Vector length = %d, want 4 (s+2)", len(vec))
	}
	if vec[0] != 1 || vec[1] != 1 || vec[2] != 0 || vec[3] != 0 {
		t.Fatalf("initial vector = %v", vec)
	}
	if _, err := tab.Vector(-1); !errors.Is(err, ErrUnknownCollector) {
		t.Fatalf("Vector(-1) error = %v", err)
	}
}

func TestScreenDrawsAReporter(t *testing.T) {
	tab := fullTable(t, 4, DefaultParams())
	rng := rand.New(rand.NewSource(1))
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 2, Label: tx.LabelInvalid},
	}
	for i := 0; i < 200; i++ {
		d, err := tab.Screen(rng, 0, reports)
		if err != nil {
			t.Fatalf("Screen() error = %v", err)
		}
		if d.Collector != 0 && d.Collector != 2 {
			t.Fatalf("Screen() drew non-reporter %d", d.Collector)
		}
		if d.Collector == 0 && d.Label != tx.LabelValid {
			t.Fatal("drawn label does not match reporter")
		}
		if d.Prob <= 0 || d.Prob > 1 {
			t.Fatalf("Prob = %v out of range", d.Prob)
		}
		// Algorithm 2: a +1 draw is always checked.
		if d.Label == tx.LabelValid && !d.Check {
			t.Fatal("+1 draw must always be checked")
		}
	}
}

func TestScreenUncheckedRate(t *testing.T) {
	// With every reporter labeling -1 and uniform weights, the
	// unchecked probability is f·Pr = f/r per the coin in Algorithm 2
	// — aggregate unchecked fraction is f·Σp² = f/r for uniform
	// weights. Verify the empirical rate.
	const r = 4
	params := DefaultParams()
	params.F = 0.8
	tab := fullTable(t, r, params)
	rng := rand.New(rand.NewSource(2))
	reports := make([]Report, r)
	for i := range reports {
		reports[i] = Report{Collector: i, Label: tx.LabelInvalid}
	}
	const trials = 40000
	unchecked := 0
	for i := 0; i < trials; i++ {
		d, err := tab.Screen(rng, 0, reports)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Check {
			unchecked++
		}
	}
	want := params.F / r // 0.2
	got := float64(unchecked) / trials
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("unchecked fraction = %.4f, want ≈ %.4f", got, want)
	}
}

func TestScreenErrors(t *testing.T) {
	tab := newTestTable(t, DefaultParams())
	rng := rand.New(rand.NewSource(1))
	if _, err := tab.Screen(rng, 0, nil); !errors.Is(err, ErrNoReports) {
		t.Fatalf("empty reports error = %v, want ErrNoReports", err)
	}
	if _, err := tab.Screen(rng, 99, []Report{{Collector: 0, Label: tx.LabelValid}}); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("bad provider error = %v, want ErrUnknownProvider", err)
	}
	if _, err := tab.Screen(rng, 0, []Report{{Collector: 0, Label: tx.Label(0)}}); !errors.Is(err, tx.ErrBadLabel) {
		t.Fatalf("bad label error = %v, want ErrBadLabel", err)
	}
	dup := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 0, Label: tx.LabelInvalid},
	}
	if _, err := tab.Screen(rng, 0, dup); err == nil {
		t.Fatal("duplicate reports accepted")
	}
	// A collector not linked to the provider must be rejected — the
	// topology check the paper's verify() performs.
	topoTab := newTestTable(t, DefaultParams())
	unlinked := -1
	for c := 0; c < 4; c++ {
		if _, err := topoTab.Weight(0, c); errors.Is(err, ErrNotLinked) {
			unlinked = c
			break
		}
	}
	if unlinked >= 0 {
		if _, err := topoTab.Screen(rng, 0, []Report{{Collector: unlinked, Label: tx.LabelValid}}); !errors.Is(err, ErrNotLinked) {
			t.Fatalf("unlinked reporter error = %v, want ErrNotLinked", err)
		}
	}
}

func TestCheckProbabilityFormula(t *testing.T) {
	const r = 4
	params := DefaultParams()
	params.F = 0.6
	tab := fullTable(t, r, params)
	// Uniform weights, 2 of 4 label -1:
	// P = 1 − f·(2·(1/4)²)·... wait: Σ_{-1} w²/W² with W = 4, w = 1
	// each → 1 − 0.6·2/16 = 1 − 0.075 = 0.925.
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 1, Label: tx.LabelValid},
		{Collector: 2, Label: tx.LabelInvalid},
		{Collector: 3, Label: tx.LabelInvalid},
	}
	p, err := tab.CheckProbability(0, reports)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.925) > 1e-12 {
		t.Fatalf("CheckProbability = %v, want 0.925", p)
	}
	// Lemma 2: always ≥ 1 − f.
	if p < 1-params.F {
		t.Fatal("CheckProbability below Lemma 2 floor")
	}
}

func TestCheckProbabilityMatchesEmpirical(t *testing.T) {
	const r = 4
	params := DefaultParams()
	params.F = 0.9
	tab := fullTable(t, r, params)
	reports := []Report{
		{Collector: 0, Label: tx.LabelInvalid},
		{Collector: 1, Label: tx.LabelInvalid},
		{Collector: 2, Label: tx.LabelValid},
	}
	want, err := tab.CheckProbability(0, reports)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const trials = 60000
	checked := 0
	for i := 0; i < trials; i++ {
		d, err := tab.Screen(rng, 0, reports)
		if err != nil {
			t.Fatal(err)
		}
		if d.Check {
			checked++
		}
	}
	got := float64(checked) / trials
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical check rate %.4f, formula %.4f", got, want)
	}
}

func TestRecordForgery(t *testing.T) {
	tab := newTestTable(t, DefaultParams())
	if err := tab.RecordForgery(1); err != nil {
		t.Fatal(err)
	}
	if err := tab.RecordForgery(1); err != nil {
		t.Fatal(err)
	}
	if tab.Forge(1) != -2 {
		t.Fatalf("Forge(1) = %v, want -2", tab.Forge(1))
	}
	if tab.Forge(0) != 0 {
		t.Fatal("forgery leaked to another collector")
	}
	if err := tab.RecordForgery(99); !errors.Is(err, ErrUnknownCollector) {
		t.Fatalf("error = %v, want ErrUnknownCollector", err)
	}
}

func TestRecordChecked(t *testing.T) {
	tab := fullTable(t, 3, DefaultParams())
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 1, Label: tx.LabelInvalid},
		{Collector: 2, Label: tx.LabelValid},
	}
	if err := tab.RecordChecked(0, reports, tx.StatusValid); err != nil {
		t.Fatal(err)
	}
	if tab.Misreport(0) != 1 || tab.Misreport(2) != 1 {
		t.Fatal("correct labelers should gain +1")
	}
	if tab.Misreport(1) != -1 {
		t.Fatal("wrong labeler should lose 1")
	}
	// Checked transactions must not touch the per-provider weights.
	for c := 0; c < 3; c++ {
		w, err := tab.Weight(0, c)
		if err != nil {
			t.Fatal(err)
		}
		if w != 1 {
			t.Fatalf("Weight(0,%d) = %v after RecordChecked, want 1", c, w)
		}
	}
}

func TestRecordRevealed(t *testing.T) {
	params := DefaultParams()
	tab := fullTable(t, 3, params)
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 1, Label: tx.LabelInvalid},
		// collector 2 discarded the transaction
	}
	res, err := tab.RecordRevealed(0, reports, tx.StatusValid)
	if err != nil {
		t.Fatal(err)
	}
	// W_right = 1 (collector 0), W_wrong = 1 (collector 1) → L = 1.
	if math.Abs(res.Loss-1) > 1e-12 {
		t.Fatalf("Loss = %v, want 1", res.Loss)
	}
	wantGamma := rwm.Gamma(params.Beta, 1)
	if math.Abs(res.Gamma-wantGamma) > 1e-12 {
		t.Fatalf("Gamma = %v, want %v", res.Gamma, wantGamma)
	}
	w0, _ := tab.Weight(0, 0)
	w1, _ := tab.Weight(0, 1)
	w2, _ := tab.Weight(0, 2)
	if w0 != 1 {
		t.Fatalf("right collector weight = %v, want 1", w0)
	}
	if math.Abs(w1-wantGamma) > 1e-12 {
		t.Fatalf("wrong collector weight = %v, want γ", w1)
	}
	if math.Abs(w2-params.Beta) > 1e-12 {
		t.Fatalf("absent collector weight = %v, want β", w2)
	}
}

// TestRevealMetricsMerge: a cluster or fleet view merges one registry
// per committee or process, and must keep every registry's reveals.
func TestRevealMetricsMerge(t *testing.T) {
	var merged metrics.Snapshot
	for i := 0; i < 2; i++ {
		reg := metrics.NewRegistry()
		tab := fullTable(t, 3, DefaultParams())
		tab.SetMetrics(reg)
		reports := []Report{{Collector: 0, Label: tx.LabelValid}, {Collector: 1, Label: tx.LabelInvalid}}
		if _, err := tab.RecordRevealed(0, reports, tx.StatusValid); err != nil {
			t.Fatal(err)
		}
		merged.Merge(reg.Snapshot())
	}
	for _, name := range []string{"reputation.reveal_loss", "reputation.reveal_gamma"} {
		h := merged.Histograms[name]
		if h.Count != 2 {
			t.Fatalf("%s counts %d reveals after merging two registries, want 2", name, h.Count)
		}
		if h.Counts[len(h.Counts)-1] != 0 {
			t.Fatalf("%s: a reveal fell above the last bucket", name)
		}
	}
}

func TestRecordRevealedInvalidStatus(t *testing.T) {
	// Symmetric case: the transaction proves invalid, so -1 labelers
	// are right.
	params := DefaultParams()
	tab := fullTable(t, 2, params)
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 1, Label: tx.LabelInvalid},
	}
	if _, err := tab.RecordRevealed(0, reports, tx.StatusInvalid); err != nil {
		t.Fatal(err)
	}
	w0, _ := tab.Weight(0, 0)
	w1, _ := tab.Weight(0, 1)
	if w1 != 1 {
		t.Fatalf("correct -1 labeler weight = %v, want 1", w1)
	}
	if w0 >= 1 {
		t.Fatalf("wrong +1 labeler weight = %v, want < 1", w0)
	}
}

func TestRevenueMonotoneInBehaviour(t *testing.T) {
	params := DefaultParams()
	tab := fullTable(t, 3, params)
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 1, Label: tx.LabelInvalid},
		{Collector: 2, Label: tx.LabelValid},
	}
	// One reveal where collector 1 was wrong; one checked tx where it
	// misreported; one forgery by collector 1.
	if _, err := tab.RecordRevealed(0, reports, tx.StatusValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.RecordChecked(0, reports, tx.StatusValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.RecordForgery(1); err != nil {
		t.Fatal(err)
	}
	good, err := tab.LogRevenue(0)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := tab.LogRevenue(1)
	if err != nil {
		t.Fatal(err)
	}
	if bad >= good {
		t.Fatalf("misbehaving collector log revenue %v ≥ honest log revenue %v", bad, good)
	}
	if _, err := tab.LogRevenue(99); !errors.Is(err, ErrUnknownCollector) {
		t.Fatalf("LogRevenue(99) error = %v", err)
	}
}

func TestRevenueSharesSumToOne(t *testing.T) {
	tab := newTestTable(t, DefaultParams())
	shares, err := tab.RevenueShares()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		if s < 0 {
			t.Fatalf("negative share %v", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func TestGovernorLossAndRegretAccessors(t *testing.T) {
	tab := fullTable(t, 2, DefaultParams())
	reports := []Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 1, Label: tx.LabelInvalid},
	}
	if _, err := tab.RecordRevealed(0, reports, tx.StatusValid); err != nil {
		t.Fatal(err)
	}
	loss, err := tab.GovernorLoss(0)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatal("loss should be positive after a wrong reporter")
	}
	regret, err := tab.Regret(0)
	if err != nil {
		t.Fatal(err)
	}
	if regret != loss {
		t.Fatal("with a perfect best expert, regret should equal loss")
	}
	if _, err := tab.GovernorLoss(9); !errors.Is(err, ErrUnknownProvider) {
		t.Fatal("bad provider accepted")
	}
}

// TestScreeningConvergesToHonest is the mechanism's core behavioural
// property: after enough reveals, the honest collector dominates the
// draw distribution.
func TestScreeningConvergesToHonest(t *testing.T) {
	const r = 4
	params := DefaultParams()
	tab := fullTable(t, r, params)
	rng := rand.New(rand.NewSource(11))

	// 200 revealed transactions; collector 0 always right, the rest
	// always wrong.
	reports := make([]Report, r)
	for i := 0; i < 200; i++ {
		for c := 0; c < r; c++ {
			label := tx.LabelInvalid // wrong: the txs are valid
			if c == 0 {
				label = tx.LabelValid
			}
			reports[c] = Report{Collector: c, Label: label}
		}
		if _, err := tab.RecordRevealed(0, reports, tx.StatusValid); err != nil {
			t.Fatal(err)
		}
	}
	// Now the draw should pick collector 0 almost always.
	picks := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		d, err := tab.Screen(rng, 0, reports)
		if err != nil {
			t.Fatal(err)
		}
		if d.Collector == 0 {
			picks++
		}
	}
	if frac := float64(picks) / trials; frac < 0.99 {
		t.Fatalf("honest collector drawn %.3f of the time, want > 0.99", frac)
	}
}

// TestQuickRevealKeepsWeightsSane: any report/status stream keeps
// weights positive, finite, and bounded by 1.
func TestQuickRevealKeepsWeightsSane(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		topo, err := identity.NewRegularTopology(identity.TopologySpec{
			Providers: 2, Collectors: 4, Degree: 4,
		})
		if err != nil {
			return false
		}
		tab, err := NewTable(topo, DefaultParams())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(rounds); i++ {
			k := rng.Intn(2)
			var reports []Report
			for c := 0; c < 4; c++ {
				if rng.Float64() < 0.3 {
					continue // discarded
				}
				label := tx.LabelValid
				if rng.Float64() < 0.5 {
					label = tx.LabelInvalid
				}
				reports = append(reports, Report{Collector: c, Label: label})
			}
			if len(reports) == 0 {
				continue
			}
			status := tx.StatusValid
			if rng.Float64() < 0.5 {
				status = tx.StatusInvalid
			}
			if _, err := tab.RecordRevealed(k, reports, status); err != nil {
				return false
			}
			for c := 0; c < 4; c++ {
				w, err := tab.Weight(k, c)
				if err != nil {
					return false
				}
				if w <= 0 || w > 1 || math.IsNaN(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScreen(b *testing.B) {
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: 1, Collectors: 8, Degree: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := NewTable(topo, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reports := make([]Report, 8)
	for i := range reports {
		label := tx.LabelValid
		if i%3 == 0 {
			label = tx.LabelInvalid
		}
		reports[i] = Report{Collector: i, Label: label}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Screen(rng, 0, reports); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordRevealed(b *testing.B) {
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: 1, Collectors: 8, Degree: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := NewTable(topo, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	reports := make([]Report, 8)
	for i := range reports {
		label := tx.LabelValid
		if i%2 == 0 {
			label = tx.LabelInvalid
		}
		reports[i] = Report{Collector: i, Label: label}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.RecordRevealed(0, reports, tx.StatusValid); err != nil {
			b.Fatal(err)
		}
	}
}
