// Package reputation implements the paper's provable reputation
// mechanism — its primary contribution.
//
// Each governor g_j maintains, for every collector c_i, the
// (s+2)-length vector of §3.4:
//
//	r⃗_{j,i} = (w_{j,i,k_1}, …, w_{j,i,k_s}, w_misreport, w_forge)
//
// The first s entries — one per provider the collector oversees — are
// multiplicative weights driving the screening draw (a Randomized
// Weighted Majority instance per provider, package rwm). w_misreport
// is an additive score updated immediately when the governor checks a
// transaction; w_forge is an additive penalty for uploads with
// illegal signatures.
//
// Table implements:
//
//   - Algorithm 2 (transaction screening): Screen draws one reporting
//     collector with probability proportional to its per-provider
//     weight and decides whether the governor must validate;
//   - Algorithm 3 (reputation updating): RecordForgery (case 1),
//     RecordChecked (case 2), and RecordRevealed (case 3);
//   - the revenue rule of §3.4.3:
//     revenue_i ∝ ∏_u w_{j,i,k_u} · µ^{w_misreport} · ν^{w_forge}.
package reputation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repchain/internal/identity"
	"repchain/internal/metrics"
	"repchain/internal/rwm"
	"repchain/internal/tx"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadParams reports parameters outside their legal ranges.
	ErrBadParams = errors.New("reputation: invalid parameters")
	// ErrUnknownProvider reports an out-of-range provider index.
	ErrUnknownProvider = errors.New("reputation: unknown provider")
	// ErrUnknownCollector reports an out-of-range collector index.
	ErrUnknownCollector = errors.New("reputation: unknown collector")
	// ErrNotLinked reports a (provider, collector) pair without a
	// topology link.
	ErrNotLinked = errors.New("reputation: collector not linked to provider")
	// ErrNoReports reports a screening call with no reporting
	// collectors.
	ErrNoReports = errors.New("reputation: no reports for transaction")
)

// Params are the tunable constants of §3.4.
type Params struct {
	// Beta is β ∈ (0, 1), the multiplicative decay for missed
	// transactions; the paper suggests 0.9 in practice and
	// 1 − 4·√(log₂ r / T) when the horizon T is known.
	Beta float64
	// F is f ∈ (0, 1), the efficiency tuning parameter: the larger f,
	// the fewer -1-labeled transactions the governor verifies.
	F float64
	// Mu is µ > 1, the revenue base for the misreport score.
	Mu float64
	// Nu is ν > 1, the revenue base for the forgery score.
	Nu float64
}

// DefaultParams returns the paper's suggested practical values.
func DefaultParams() Params {
	return Params{Beta: 0.9, F: 0.5, Mu: 1.1, Nu: 2.0}
}

// Validate checks all parameter ranges.
func (p Params) Validate() error {
	switch {
	case p.Beta <= 0 || p.Beta >= 1:
		return fmt.Errorf("beta %v not in (0,1): %w", p.Beta, ErrBadParams)
	case p.F <= 0 || p.F >= 1:
		return fmt.Errorf("f %v not in (0,1): %w", p.F, ErrBadParams)
	case p.Mu <= 1:
		return fmt.Errorf("mu %v must exceed 1: %w", p.Mu, ErrBadParams)
	case p.Nu <= 1:
		return fmt.Errorf("nu %v must exceed 1: %w", p.Nu, ErrBadParams)
	}
	return nil
}

// Report is one collector's upload for a transaction: the collector's
// global index and its label.
type Report struct {
	// Collector is the global collector index.
	Collector int
	// Label is the collector's judgment.
	Label tx.Label
}

// Decision is the outcome of Algorithm 2's screening draw for one
// transaction.
type Decision struct {
	// Collector is the drawn collector's global index.
	Collector int
	// Label is the drawn collector's label.
	Label tx.Label
	// Prob is Pr_{j,i_{k,u},k,tx}, the probability with which the
	// collector was drawn.
	Prob float64
	// Check reports whether the governor must validate the
	// transaction. When false the transaction is recorded
	// (tx, invalid, unchecked).
	Check bool
}

// Table is one governor's local reputation state over all collectors.
// It is not safe for concurrent use; the owning governor serializes
// access (each governor owns exactly one Table).
type Table struct {
	topo   *identity.Topology
	params Params

	// perProvider[k] is the RWM instance whose experts are the
	// collectors linked with provider k, ordered as
	// topo.CollectorsOf(k).
	perProvider []*rwm.Instance
	// expertOf[k] maps a global collector index to its expert
	// position within perProvider[k].
	expertOf []map[int]int

	misreport []float64
	forge     []float64

	m tableMetrics
}

// tableMetrics holds the optional pre-resolved delta counters a table
// reports through. All fields nil when no registry is attached; every
// update site guards with a single nil check, so the paper-exact
// update rules run identically with metrics on or off.
type tableMetrics struct {
	forgePenalties *metrics.Counter
	misreportUp    *metrics.Counter
	misreportDown  *metrics.Counter
	betaDecays     *metrics.Counter
	gammaDecays    *metrics.Counter
	revealLoss     *metrics.Histogram
	revealGamma    *metrics.Histogram
}

// SetMetrics attaches delta counters for every Algorithm 3 update to
// reg. Counters aggregate across all tables sharing the registry (one
// per governor), giving the alliance-wide reputation movement. Purely
// observational: no update rule changes.
func (t *Table) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		t.m = tableMetrics{}
		return
	}
	t.m = tableMetrics{
		forgePenalties: reg.Counter("reputation.forge_penalties_total"),
		misreportUp:    reg.Counter("reputation.misreport_up_total"),
		misreportDown:  reg.Counter("reputation.misreport_down_total"),
		betaDecays:     reg.Counter("reputation.beta_decays_total"),
		gammaDecays:    reg.Counter("reputation.gamma_decays_total"),
		// L_tx ∈ [0, 2] and γ_tx ∈ [β², 1] (rwm.Gamma), so the
		// buckets cover every value.
		revealLoss:  reg.Histogram("reputation.reveal_loss", linearBounds(0, 2, 20)),
		revealGamma: reg.Histogram("reputation.reveal_gamma", linearBounds(t.params.Beta*t.params.Beta, 1, 20)),
	}
}

// linearBounds returns n histogram bounds splitting [lo, hi] evenly.
func linearBounds(lo, hi float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = lo + (hi-lo)*float64(i+1)/float64(n)
	}
	return b
}

// NewTable creates the reputation state for a governor observing the
// given topology.
func NewTable(topo *identity.Topology, params Params) (*Table, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		topo:        topo,
		params:      params,
		perProvider: make([]*rwm.Instance, topo.Providers()),
		expertOf:    make([]map[int]int, topo.Providers()),
		misreport:   make([]float64, topo.Collectors()),
		forge:       make([]float64, topo.Collectors()),
	}
	for k := 0; k < topo.Providers(); k++ {
		linked := topo.CollectorsOf(k)
		in, err := rwm.New(len(linked), params.Beta)
		if err != nil {
			return nil, fmt.Errorf("provider %d instance: %w", k, err)
		}
		t.perProvider[k] = in
		m := make(map[int]int, len(linked))
		for pos, c := range linked {
			m[c] = pos
		}
		t.expertOf[k] = m
	}
	return t, nil
}

// Params returns the table's parameters.
func (t *Table) Params() Params { return t.params }

// Providers returns l.
func (t *Table) Providers() int { return len(t.perProvider) }

// Collectors returns n.
func (t *Table) Collectors() int { return len(t.misreport) }

// Weight returns w_{j,i,k}: collector c's weight with respect to
// provider k.
func (t *Table) Weight(k, c int) (float64, error) {
	pos, err := t.expertPos(k, c)
	if err != nil {
		return 0, err
	}
	return t.perProvider[k].Weight(pos), nil
}

func (t *Table) expertPos(k, c int) (int, error) {
	if k < 0 || k >= len(t.perProvider) {
		return 0, fmt.Errorf("provider %d: %w", k, ErrUnknownProvider)
	}
	pos, ok := t.expertOf[k][c]
	if !ok {
		if c < 0 || c >= len(t.misreport) {
			return 0, fmt.Errorf("collector %d: %w", c, ErrUnknownCollector)
		}
		return 0, fmt.Errorf("collector %d, provider %d: %w", c, k, ErrNotLinked)
	}
	return pos, nil
}

// Misreport returns w_misreport for collector c.
func (t *Table) Misreport(c int) float64 { return t.misreport[c] }

// Forge returns w_forge for collector c.
func (t *Table) Forge(c int) float64 { return t.forge[c] }

// Instance exposes the per-provider RWM instance for analysis
// (benchmarks read regret series from it). The instance is shared —
// callers must not mutate it.
func (t *Table) Instance(k int) (*rwm.Instance, error) {
	if k < 0 || k >= len(t.perProvider) {
		return nil, fmt.Errorf("provider %d: %w", k, ErrUnknownProvider)
	}
	return t.perProvider[k], nil
}

// validateReports checks report sanity against the topology and
// returns the expert positions of the reporters in instance order.
func (t *Table) validateReports(k int, reports []Report) ([]int, error) {
	if k < 0 || k >= len(t.perProvider) {
		return nil, fmt.Errorf("provider %d: %w", k, ErrUnknownProvider)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("provider %d: %w", k, ErrNoReports)
	}
	positions := make([]int, len(reports))
	for i, r := range reports {
		if !r.Label.Valid() {
			return nil, fmt.Errorf("report %d label %d: %w", i, r.Label, tx.ErrBadLabel)
		}
		// At most one report per linked collector: a scan finds a repeat.
		for _, prev := range reports[:i] {
			if prev.Collector == r.Collector {
				return nil, fmt.Errorf("duplicate report from collector %d: %w", r.Collector, ErrNoReports)
			}
		}
		pos, err := t.expertPos(k, r.Collector)
		if err != nil {
			return nil, err
		}
		positions[i] = pos
	}
	return positions, nil
}

// Screen runs Algorithm 2's draw for one transaction from provider k
// given the uploaded reports. It draws a reporter with probability
// proportional to w_{j,·,k}; a +1 draw is always checked, a -1 draw
// is checked with probability 1 − f·Pr.
func (t *Table) Screen(rng *rand.Rand, k int, reports []Report) (Decision, error) {
	positions, err := t.validateReports(k, reports)
	if err != nil {
		return Decision{}, err
	}
	in := t.perProvider[k]
	pos, prob, err := in.Pick(rng, positions)
	if err != nil {
		return Decision{}, fmt.Errorf("provider %d draw: %w", k, err)
	}
	var chosen Report
	for i, p := range positions {
		if p == pos {
			chosen = reports[i]
			break
		}
	}
	d := Decision{Collector: chosen.Collector, Label: chosen.Label, Prob: prob}
	if chosen.Label == tx.LabelValid {
		d.Check = true
		return d, nil
	}
	// -1 draw: toss a (1 − f·Pr) coin for checking.
	d.Check = rng.Float64() < 1-t.params.F*prob
	return d, nil
}

// CheckProbability returns the exact probability that a transaction
// from provider k with the given reports is verified:
//
//	P_checked = 1 − f · Σ_{-1 reporters} w² / W²
//
// (Lemma 2 shows P_checked ≥ 1 − f.) Benchmarks compare the empirical
// unchecked fraction against 1 minus this value. The sum runs over the
// draw probabilities w/W, not w² and W², which underflow to 0/0 once
// every reporter's weight is below about 1e-154.
func (t *Table) CheckProbability(k int, reports []Report) (float64, error) {
	positions, err := t.validateReports(k, reports)
	if err != nil {
		return 0, err
	}
	probs, err := t.perProvider[k].Probabilities(positions)
	if err != nil {
		return 0, fmt.Errorf("provider %d: %w", k, err)
	}
	var sumSqInvalid float64
	for i, p := range probs {
		if reports[i].Label == tx.LabelInvalid {
			sumSqInvalid += p * p
		}
	}
	return 1 - t.params.F*sumSqInvalid, nil
}

// RecordForgery applies Algorithm 3 case 1: a transaction with an
// illegal signature was uploaded by collector c, so w_forge decreases
// by 1.
func (t *Table) RecordForgery(c int) error {
	if c < 0 || c >= len(t.forge) {
		return fmt.Errorf("collector %d: %w", c, ErrUnknownCollector)
	}
	t.forge[c]--
	if t.m.forgePenalties != nil {
		t.m.forgePenalties.Inc()
	}
	return nil
}

// RecordChecked applies Algorithm 3 case 2: the governor validated a
// transaction from provider k and learned its status. Every reporting
// collector whose label matches gains +1 misreport score; every
// opposite reporter loses 1.
func (t *Table) RecordChecked(k int, reports []Report, status tx.Status) error {
	if _, err := t.validateReports(k, reports); err != nil {
		return err
	}
	for _, r := range reports {
		if r.Label.Matches(status) {
			t.misreport[r.Collector]++
			if t.m.misreportUp != nil {
				t.m.misreportUp.Inc()
			}
		} else {
			t.misreport[r.Collector]--
			if t.m.misreportDown != nil {
				t.m.misreportDown.Inc()
			}
		}
	}
	return nil
}

// RevealResult reports the effect of RecordRevealed.
type RevealResult struct {
	// Loss is L_tx, the governor's expected loss on the transaction.
	Loss float64
	// Gamma is the γ_tx applied to wrong reporters.
	Gamma float64
}

// RecordRevealed applies Algorithm 3 case 3: the true status of an
// unchecked transaction from provider k has been revealed (for
// example through a provider's argue). Reporters with the correct
// label keep their weight; wrong reporters are multiplied by γ_tx;
// linked collectors that never reported are multiplied by β.
func (t *Table) RecordRevealed(k int, reports []Report, status tx.Status) (RevealResult, error) {
	positions, err := t.validateReports(k, reports)
	if err != nil {
		return RevealResult{}, err
	}
	in := t.perProvider[k]
	outcomes := make([]rwm.Outcome, in.Experts())
	for i := range outcomes {
		outcomes[i] = rwm.OutcomeAbsent
	}
	for i, pos := range positions {
		if reports[i].Label.Matches(status) {
			outcomes[pos] = rwm.OutcomeRight
		} else {
			outcomes[pos] = rwm.OutcomeWrong
		}
	}
	res, err := in.Reveal(outcomes)
	if err != nil {
		return RevealResult{}, fmt.Errorf("provider %d reveal: %w", k, err)
	}
	if t.m.revealLoss != nil {
		for _, o := range outcomes {
			switch o {
			case rwm.OutcomeWrong:
				t.m.gammaDecays.Inc()
			case rwm.OutcomeAbsent:
				t.m.betaDecays.Inc()
			}
		}
		t.m.revealLoss.Observe(res.Loss)
		t.m.revealGamma.Observe(res.Gamma)
	}
	return RevealResult{Loss: res.Loss, Gamma: res.Gamma}, nil
}

// LogRevenue returns the natural logarithm of collector c's revenue
// coefficient
//
//	∏_u w_{j,c,k_u} · µ^{w_misreport} · ν^{w_forge}
//
// of §3.4.3. The coefficient itself overflows float64 quickly — an
// honest collector's misreport score grows by one per checked
// transaction, so µ^score exceeds 1e308 within a few thousand
// transactions — hence all arithmetic stays in log space.
func (t *Table) LogRevenue(c int) (float64, error) {
	if c < 0 || c >= len(t.misreport) {
		return 0, fmt.Errorf("collector %d: %w", c, ErrUnknownCollector)
	}
	logSum := 0.0
	for _, k := range t.topo.ProvidersOf(c) {
		pos, err := t.expertPos(k, c)
		if err != nil {
			return 0, err
		}
		logSum += math.Log(t.perProvider[k].Weight(pos))
	}
	logSum += t.misreport[c] * math.Log(t.params.Mu)
	logSum += t.forge[c] * math.Log(t.params.Nu)
	return logSum, nil
}

// RevenueShares returns every collector's revenue coefficient
// normalized to sum to 1 — the proportional split of the constant
// profit share. Computed in log space (softmax) so arbitrarily large
// score differences stay finite.
func (t *Table) RevenueShares() ([]float64, error) {
	logs := make([]float64, t.Collectors())
	maxLog := math.Inf(-1)
	for c := range logs {
		v, err := t.LogRevenue(c)
		if err != nil {
			return nil, err
		}
		logs[c] = v
		if v > maxLog {
			maxLog = v
		}
	}
	shares := make([]float64, len(logs))
	var total float64
	for c, v := range logs {
		shares[c] = math.Exp(v - maxLog)
		total += shares[c]
	}
	if total > 0 {
		for c := range shares {
			shares[c] /= total
		}
	}
	return shares, nil
}

// Vector returns the full reputation vector for collector c in the
// paper's layout: the s per-provider weights (ordered by provider
// index) followed by w_misreport and w_forge.
func (t *Table) Vector(c int) ([]float64, error) {
	if c < 0 || c >= len(t.misreport) {
		return nil, fmt.Errorf("collector %d: %w", c, ErrUnknownCollector)
	}
	providers := t.topo.ProvidersOf(c)
	out := make([]float64, 0, len(providers)+2)
	for _, k := range providers {
		pos, err := t.expertPos(k, c)
		if err != nil {
			return nil, err
		}
		out = append(out, t.perProvider[k].Weight(pos))
	}
	out = append(out, t.misreport[c], t.forge[c])
	return out, nil
}

// GovernorLoss returns the accumulated expected loss L_T on provider
// k's revealed unchecked transactions.
func (t *Table) GovernorLoss(k int) (float64, error) {
	in, err := t.Instance(k)
	if err != nil {
		return 0, err
	}
	return in.GovernorLoss(), nil
}

// Regret returns L_T − S^min_T for provider k, the quantity Theorem 1
// bounds.
func (t *Table) Regret(k int) (float64, error) {
	in, err := t.Instance(k)
	if err != nil {
		return 0, err
	}
	return in.Regret(), nil
}
