package sim

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknown reports a request for an experiment ID that does not
// exist.
var ErrUnknown = errors.New("sim: unknown experiment")

// Table is one experiment's rendered result: the rows
// `repchain-sim tables` prints and EXPERIMENTS.md records.
type Table struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title states the claim under test.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the measured series.
	Rows [][]string
	// Notes record the workload and the expected shape.
	Notes []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiments lists every experiment in EXPERIMENTS.md order. Run makes
// one table: seed makes it reproducible and scale (≥ 1) multiplies the
// workload sizes, so quick test runs and full runs share code.
var Experiments = []struct {
	ID  string
	Run func(seed int64, scale int) (Table, error)
}{
	{"E1", E1RegretSqrtT},
	{"E2", E2UncheckedVsF},
	{"E3", E3HoeffdingTail},
	{"E4", E4ThroughputVsF},
	{"E5", E5PolicyComparison},
	{"E6", E6IncentiveCurve},
	{"E7", E7MessageComplexity},
	{"E8", E8AdversaryFraction},
	{"E9", E9ArgueLatency},
	{"E10", E10BetaAblation},
	{"E11", E11TurncoatAttack},
	{"E12", E12TheoremFour},
	{"E13", E13MempoolBackpressure},
}

// RunTable runs the experiment named id; an unknown id's error lists
// the valid ones.
func RunTable(id string, seed int64, scale int) (Table, error) {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.ID == id {
			return e.Run(seed, max(scale, 1))
		}
		ids[i] = e.ID
	}
	return Table{}, fmt.Errorf("%q, want one of %s: %w", id, strings.Join(ids, ","), ErrUnknown)
}

// runSim builds a simulation from cfg and runs n transactions.
func runSim(cfg Config, n int) (*Sim, Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	res, err := s.Run(n)
	return s, res, err
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func d64(v int64) string  { return fmt.Sprintf("%d", v) }
func g4(v float64) string { return fmt.Sprintf("%.4g", v) }
