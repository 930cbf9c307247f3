package sim

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tbl Table, row int, col string) string {
	t.Helper()
	for i, h := range tbl.Header {
		if h == col {
			return tbl.Rows[row][i]
		}
	}
	t.Fatalf("table %s has no column %q", tbl.ID, col)
	return ""
}

func cellF(t *testing.T, tbl Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tbl, row, col), 64)
	if err != nil {
		t.Fatalf("table %s row %d col %s: %v", tbl.ID, row, col, err)
	}
	return v
}

func TestIDsComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
	if len(Experiments) != len(want) {
		t.Fatalf("%d experiments, want %d", len(Experiments), len(want))
	}
	for i := range want {
		if Experiments[i].ID != want[i] {
			t.Fatalf("Experiments[%d].ID = %s, want %s", i, Experiments[i].ID, want[i])
		}
	}
}

// TestE11WhitewashingResistance asserts the key turncoat property:
// post-turn damage does not grow with the banked honest phase.
func TestE11WhitewashingResistance(t *testing.T) {
	tbl, err := E11TurncoatAttack(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := cellF(t, tbl, 0, "mistakes after turn") // W = 0
	for i := 1; i < len(tbl.Rows); i++ {
		post := cellF(t, tbl, i, "mistakes after turn")
		if post > 4*base+20 {
			t.Fatalf("W=%s banked reputation amplified damage: %v post-turn mistakes vs %v at W=0",
				cell(t, tbl, i, "honest phase W"), post, base)
		}
	}
	// The turncoats' weights must have collapsed far below the honest
	// collector's.
	lastRow := len(tbl.Rows) - 1
	if cellF(t, tbl, lastRow, "final turncoat weight") >= cellF(t, tbl, lastRow, "final honest weight") {
		t.Fatal("turncoat weight did not collapse")
	}
}

func TestRunUnknown(t *testing.T) {
	_, err := RunTable("E99", 1, 1)
	if !errors.Is(err, ErrUnknown) || !strings.Contains(err.Error(), "E1,E2,") || !strings.Contains(err.Error(), "E13") {
		t.Fatalf("error = %v, want ErrUnknown naming E1..E13", err)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID: "EX", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	out := tbl.Render()
	for _, want := range []string{"EX", "demo", "a", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestE1ShapeHolds asserts the Theorem 1 shape: regret under the bound
// on every horizon and regret/√T not exploding.
func TestE1ShapeHolds(t *testing.T) {
	tbl, err := E1RegretSqrtT(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		regret := cellF(t, tbl, i, "regret")
		bound := cellF(t, tbl, i, "bound 16√(log2(r)·T)")
		if regret > bound {
			t.Fatalf("row %d: regret %v over bound %v", i, regret, bound)
		}
	}
	// Sub-linear growth: ratio at the largest T no more than 3× the
	// smallest ratio (it should be roughly flat).
	first := cellF(t, tbl, 0, "regret/√T")
	last := cellF(t, tbl, len(tbl.Rows)-1, "regret/√T")
	if first > 0 && last/first > 3 {
		t.Fatalf("regret/√T grew %vx: not O(√T) shaped", last/first)
	}
}

// TestE2LemmaHolds asserts Pr[unchecked] ≤ f on every row.
func TestE2LemmaHolds(t *testing.T) {
	tbl, err := E2UncheckedVsF(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, "holds") != "yes" {
			t.Fatalf("row %d violates Lemma 2: %v", i, tbl.Rows[i])
		}
	}
}

// TestE3BoundHolds asserts the Hoeffding bound dominates the empirical
// tail.
func TestE3BoundHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("many trials")
	}
	tbl, err := E3HoeffdingTail(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, "holds") != "yes" {
			t.Fatalf("row %d violates Theorem 3: %v", i, tbl.Rows[i])
		}
	}
}

// TestE4EfficiencyShape asserts checked/tx decreases with f.
func TestE4EfficiencyShape(t *testing.T) {
	tbl, err := E4ThroughputVsF(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := cellF(t, tbl, 0, "checked/tx")
	last := cellF(t, tbl, len(tbl.Rows)-1, "checked/tx")
	if last >= first {
		t.Fatalf("checked/tx did not fall with f: %v → %v", first, last)
	}
}

// TestE5ReputationBeatsUniform asserts the headline comparison.
func TestE5ReputationBeatsUniform(t *testing.T) {
	tbl, err := E5PolicyComparison(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	mistakes := make(map[string]float64)
	for i := range tbl.Rows {
		key := cell(t, tbl, i, "policy") + "/" + cell(t, tbl, i, "adversary")
		mistakes[key] = cellF(t, tbl, i, "mistakes")
	}
	for _, adv := range []string{"3of8 lie 80%", "7of8 lie 80%"} {
		rep := mistakes["reputation-rwm/"+adv]
		uni := mistakes["uniform-random/"+adv]
		if rep >= uni {
			t.Fatalf("adversary %q: reputation %v ≥ uniform %v mistakes", adv, rep, uni)
		}
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, "policy") == "check-all" && cellF(t, tbl, i, "mistakes") != 0 {
			t.Fatal("check-all made unchecked mistakes")
		}
	}
}

// TestE6MonotoneIncentive asserts revenue share decreases in
// misbehaviour.
func TestE6MonotoneIncentive(t *testing.T) {
	tbl, err := E6IncentiveCurve(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lastMis, lastCon float64 = 2, 2
	for i := range tbl.Rows {
		share := cellF(t, tbl, i, "share(collector 0)")
		if cell(t, tbl, i, "conceal p") == "0.000" {
			if share > lastMis+1e-9 {
				t.Fatalf("misreport row %d share rose: %v", i, tbl.Rows[i])
			}
			lastMis = share
		} else {
			if share > lastCon+1e-9 {
				t.Fatalf("conceal row %d share rose: %v", i, tbl.Rows[i])
			}
			lastCon = share
		}
	}
}

// TestE7ComplexityShape asserts linear block scaling and quadratic
// stake scaling: the normalized columns stay within a small factor
// across m.
func TestE7ComplexityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up engines with up to 32 governors")
	}
	tbl, err := E7MessageComplexity(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkFlat := func(col string, tolerance float64) {
		lo, hi := 1e18, 0.0
		for i := range tbl.Rows {
			v := cellF(t, tbl, i, col)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo <= 0 || hi/lo > tolerance {
			t.Fatalf("column %q not flat: min %v max %v", col, lo, hi)
		}
	}
	// One upload batch per collector per governor per round, at any m
	// and for all 24 transactions of the round.
	for i := range tbl.Rows {
		if v := cellF(t, tbl, i, "upload msgs/(n·m)"); v != 1 {
			t.Fatalf("row %d: %v upload messages per collector per governor per round, want 1", i, v)
		}
	}
	checkFlat("bytes/(b_limit·m)", 4)
	checkFlat("stake msgs/m²", 6)
}

// TestE8RobustToMinorityOfOne asserts the guarantee holds with a
// single honest collector.
func TestE8RobustToMinorityOfOne(t *testing.T) {
	tbl, err := E8AdversaryFraction(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		regret := cellF(t, tbl, i, "regret")
		bound := cellF(t, tbl, i, "bound")
		if regret > bound {
			t.Fatalf("row %d (%s liars): regret %v over bound %v",
				i, cell(t, tbl, i, "liars"), regret, bound)
		}
	}
}

// TestE9GracefulDegradation asserts reveal latency degrades metrics
// smoothly, not catastrophically.
func TestE9GracefulDegradation(t *testing.T) {
	tbl, err := E9ArgueLatency(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := cellF(t, tbl, 0, "mistakes")
	last := cellF(t, tbl, len(tbl.Rows)-1, "mistakes")
	if first > 0 && last > 20*first {
		t.Fatalf("mistakes exploded with latency: %v → %v", first, last)
	}
}

// TestE10BoundHolsAcrossBeta asserts every swept β keeps the realized
// regret far under the Theorem 1 bound, with the paper's β present in
// the sweep.
func TestE10BoundHoldsAcrossBeta(t *testing.T) {
	tbl, err := E10BetaAblation(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	paperSeen := false
	for i := range tbl.Rows {
		ratio := cellF(t, tbl, i, "regret/bound")
		if ratio > 1 {
			t.Fatalf("β=%s: regret exceeds the Theorem 1 bound (ratio %v)", cell(t, tbl, i, "beta"), ratio)
		}
		if strings.Contains(cell(t, tbl, i, "is paper's choice"), "paper") {
			paperSeen = true
			if ratio > 0.25 {
				t.Fatalf("paper's β uses %.0f%% of the bound; expected comfortable slack", ratio*100)
			}
		}
	}
	if !paperSeen {
		t.Fatal("paper's β missing from the sweep")
	}
}

// TestE12NormalizedExcessBounded asserts the Theorem 4 shape: the
// excess (L−S)/√((f+δ)N) stays bounded (and does not grow) as N
// increases.
func TestE12NormalizedExcessBounded(t *testing.T) {
	tbl, err := E12TheoremFour(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := cellF(t, tbl, 0, "(L−S)/√((f+δ)N)")
	for i := range tbl.Rows {
		v := cellF(t, tbl, i, "(L−S)/√((f+δ)N)")
		if v > 2*first+1 {
			t.Fatalf("row %d: normalized excess %v grew beyond the √ scaling", i, v)
		}
		if v < -1 {
			t.Fatalf("row %d: excess %v absurdly negative; accounting broken", i, v)
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range Experiments {
		tbl, err := e.Run(3, 1)
		if err != nil {
			t.Fatalf("experiment %s: %v", e.ID, err)
		}
		if tbl.ID != e.ID || len(tbl.Rows) == 0 {
			t.Fatalf("experiment %s produced no rows", tbl.ID)
		}
		if out := tbl.Render(); !strings.Contains(out, tbl.ID) {
			t.Fatalf("experiment %s renders badly", tbl.ID)
		}
	}
}
