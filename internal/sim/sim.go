// Package sim regenerates every evaluation table recorded in
// EXPERIMENTS.md. The poster has no measured tables — its evaluation is
// Figure 1 (architecture) plus four analytical results — so each
// analytical claim becomes one experiment (DESIGN.md §3), E1–E13.
//
// Most experiments run on Sim, a deterministic policy-level simulator:
// it drives a screening policy (the paper's reputation mechanism or one
// of three baselines) over a synthetic transaction stream at millions
// of transactions per second — no crypto or networking — so the
// statistical claims (Theorems 1, 3, 4; Lemma 2) can be measured at
// their natural scale. E4, E7 and E13 drive the full protocol
// (core.Engine), which runs the identical reputation code with real
// signatures and message passing.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repchain/internal/identity"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadConfig reports an invalid simulation configuration.
	ErrBadConfig = errors.New("sim: invalid configuration")
)

// CollectorModel describes one collector's stochastic behaviour: the
// misbehaviour classes 1 and 2 of the paper's §4.2 as probabilities.
// (Class 3, forging, is exercised by the full engine; forged uploads
// never reach screening, so they do not belong in the policy-level
// harness.)
type CollectorModel struct {
	// Misreport is the probability of flipping the honest label.
	Misreport float64
	// Conceal is the probability of not reporting a transaction.
	Conceal float64
	// TurncoatAfter, when positive, makes the collector behave
	// honestly for its first TurncoatAfter observed transactions and
	// then always misreport — the classic whitewashing attack where an
	// adversary first builds reputation, then cashes it in.
	TurncoatAfter int
	// DownAfter and DownFor model a crash–restart window at the policy
	// level: when DownFor is positive the collector is silent on the
	// DownFor transactions after its first DownAfter observations, then
	// reports normally again. Silence is the fault the full engine
	// injects with CrashCollector; here it measures how the mechanism's
	// β-decay treats a node that says nothing, as opposed to one that
	// lies (Misreport).
	DownAfter int
	DownFor   int
}

// Honest is the all-zero model.
var Honest = CollectorModel{}

// Config assembles a simulation.
type Config struct {
	// Spec is the provider–collector topology.
	Spec identity.TopologySpec
	// Params tunes the reputation mechanism (β, f, µ, ν).
	Params reputation.Params
	// Policy names the screening policy: "reputation-rwm" (the paper's
	// Algorithm 2; empty means this one) or a baseline for experiment
	// E5 — "check-all" verifies everything, "uniform-random" draws a
	// reporter uniformly and applies the same f-coin with Pr = 1/x, and
	// "majority-vote" adopts the unweighted majority label, verifying a
	// majority-invalid transaction with probability 1−f.
	Policy string
	// Models assigns a behaviour per collector; nil means all honest.
	Models []CollectorModel
	// ValidFrac is the fraction of transactions that are genuinely
	// valid.
	ValidFrac float64
	// ArgueProb is the probability that the provider of an unchecked
	// valid transaction argues (1 = fully active providers).
	ArgueProb float64
	// RevealDelay is the argue-latency model: a pending unchecked
	// transaction's true status is revealed only after RevealDelay
	// newer unchecked transactions from the same provider arrive
	// (0 = immediate reveal). This is the paper's U-bounded latency,
	// experiment E9.
	RevealDelay int
	// Seed drives all randomness.
	Seed int64
}

func (c Config) validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.ValidFrac < 0 || c.ValidFrac > 1 {
		return fmt.Errorf("valid fraction %v: %w", c.ValidFrac, ErrBadConfig)
	}
	if c.ArgueProb < 0 || c.ArgueProb > 1 {
		return fmt.Errorf("argue probability %v: %w", c.ArgueProb, ErrBadConfig)
	}
	if c.RevealDelay < 0 {
		return fmt.Errorf("reveal delay %d: %w", c.RevealDelay, ErrBadConfig)
	}
	switch c.Policy {
	case "", "reputation-rwm", "check-all", "uniform-random", "majority-vote":
	default:
		return fmt.Errorf("policy %q: %w", c.Policy, ErrBadConfig)
	}
	if c.Models != nil && len(c.Models) != c.Spec.Collectors {
		return fmt.Errorf("%d models for %d collectors: %w", len(c.Models), c.Spec.Collectors, ErrBadConfig)
	}
	for i, m := range c.Models {
		if m.DownAfter < 0 || m.DownFor < 0 {
			return fmt.Errorf("collector %d down window (%d, %d): %w", i, m.DownAfter, m.DownFor, ErrBadConfig)
		}
	}
	return nil
}

// Result aggregates a run's metrics.
type Result struct {
	// Transactions is the number of transactions screened.
	Transactions int
	// Checked counts governor validations.
	Checked int
	// Unchecked counts transactions recorded (invalid, unchecked).
	Unchecked int
	// Unreported counts transactions every collector concealed.
	Unreported int
	// Silent counts reports withheld because the collector was inside
	// its down window — crash silence, distinct from strategic
	// concealment.
	Silent int
	// Mistakes counts unchecked transactions that were actually valid
	// — the governor's realized mistakes, the quantity Theorem 4
	// bounds by S + O(√((f+δ)N)).
	Mistakes int
	// Loss is 2·Mistakes, in the paper's loss units.
	Loss float64
	// ExpectedLoss is Σ L_t over reveals — the L_T of Theorem 1
	// (only populated under the reputation policy).
	ExpectedLoss float64
	// Regret is L_T − S^min_T per provider (reputation policy only).
	Regret []float64
	// BestLoss is S^min_T per provider (reputation policy only).
	BestLoss []float64
	// UncheckedFrac is Unchecked / Transactions.
	UncheckedFrac float64
	// CheckFrac is Checked / Transactions.
	CheckFrac float64
	// RevenueShares is the final revenue split (reputation policy
	// only).
	RevenueShares []float64
}

// pendingReveal is one unchecked transaction awaiting its reveal.
type pendingReveal struct {
	reports []reputation.Report
	valid   bool
}

// Sim is a running simulation. It is not safe for concurrent use.
type Sim struct {
	cfg   Config
	topo  *identity.Topology
	table *reputation.Table // nil unless the reputation policy runs
	rng   *rand.Rand

	// pending[k] queues provider k's unchecked transactions awaiting
	// their reveal.
	pending [][]pendingReveal

	// seen counts transactions observed per collector, driving the
	// turncoat switch.
	seen []int

	nextProvider int
	res          Result
}

// New builds a simulation.
func New(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo, err := identity.NewRegularTopology(cfg.Spec)
	if err != nil {
		return nil, err
	}
	var table *reputation.Table
	if cfg.Policy == "" || cfg.Policy == "reputation-rwm" {
		table, err = reputation.NewTable(topo, cfg.Params)
		if err != nil {
			return nil, err
		}
	}
	return &Sim{
		cfg:     cfg,
		topo:    topo,
		table:   table,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make([][]pendingReveal, topo.Providers()),
		seen:    make([]int, topo.Collectors()),
	}, nil
}

// Table exposes the reputation table when the reputation policy runs,
// else nil.
func (s *Sim) Table() *reputation.Table { return s.table }

// screen decides whether the governor validates a transaction with the
// given (non-empty) reports. Only the paper's policy learns; the
// baselines are stateless. The order of RNG calls is part of every
// table's output.
func (s *Sim) screen(k int, reports []reputation.Report) (bool, error) {
	switch s.cfg.Policy {
	case "", "reputation-rwm":
		d, err := s.table.Screen(s.rng, k, reports)
		return d.Check, err
	case "check-all":
		return true, nil
	case "uniform-random":
		if reports[s.rng.Intn(len(reports))].Label == tx.LabelValid {
			return true, nil
		}
		prob := 1.0 / float64(len(reports))
		return s.rng.Float64() < 1-s.cfg.Params.F*prob, nil
	default: // majority-vote; ties break to invalid
		votes := 0
		for _, r := range reports {
			if r.Label == tx.LabelValid {
				votes++
			} else {
				votes--
			}
		}
		if votes > 0 {
			return true, nil
		}
		return s.rng.Float64() < 1-s.cfg.Params.F, nil
	}
}

// Step screens one synthetic transaction end to end.
func (s *Sim) Step() error {
	k := s.nextProvider
	s.nextProvider = (s.nextProvider + 1) % s.topo.Providers()

	valid := s.rng.Float64() < s.cfg.ValidFrac
	honest := tx.LabelInvalid
	if valid {
		honest = tx.LabelValid
	}

	// Collectors react.
	var reports []reputation.Report
	for _, c := range s.topo.CollectorsOf(k) {
		model := Honest
		if s.cfg.Models != nil {
			model = s.cfg.Models[c]
		}
		s.seen[c]++
		if model.DownFor > 0 && s.seen[c] > model.DownAfter && s.seen[c] <= model.DownAfter+model.DownFor {
			s.res.Silent++
			continue
		}
		if model.TurncoatAfter > 0 && s.seen[c] > model.TurncoatAfter {
			// Whitewashing: reputation built, now always lie.
			reports = append(reports, reputation.Report{Collector: c, Label: honest.Opposite()})
			continue
		}
		if s.rng.Float64() < model.Conceal {
			continue
		}
		label := honest
		if s.rng.Float64() < model.Misreport {
			label = label.Opposite()
		}
		reports = append(reports, reputation.Report{Collector: c, Label: label})
	}
	s.res.Transactions++
	if len(reports) == 0 {
		s.res.Unreported++
		return nil
	}

	check, err := s.screen(k, reports)
	if err != nil {
		return fmt.Errorf("step %d: %w", s.res.Transactions, err)
	}
	if check {
		s.res.Checked++
		if s.table != nil {
			if err := s.table.RecordChecked(k, reports, tx.StatusFor(valid)); err != nil {
				return fmt.Errorf("step %d checked feedback: %w", s.res.Transactions, err)
			}
		}
		return nil
	}

	// Recorded (invalid, unchecked): a valid transaction here is a
	// realized governor mistake.
	s.res.Unchecked++
	if valid {
		s.res.Mistakes++
		s.res.Loss += 2
	}
	s.pending[k] = append(s.pending[k], pendingReveal{reports: reports, valid: valid})
	return s.drainReveals(k, s.cfg.RevealDelay)
}

// drainReveals applies reveals for provider k, keeping at most `keep`
// pending entries — the U-bounded argue-latency model.
func (s *Sim) drainReveals(k, keep int) error {
	q := s.pending[k]
	for len(q) > keep {
		p := q[0]
		q = q[1:]
		// A valid transaction is revealed valid only if the provider
		// argues; otherwise the expiry rule makes it permanently
		// invalid. An invalid transaction is confirmed invalid.
		status := tx.StatusInvalid
		if p.valid && s.rng.Float64() < s.cfg.ArgueProb {
			status = tx.StatusValid
		}
		if s.table == nil {
			continue
		}
		before, err := s.table.GovernorLoss(k)
		if err != nil {
			return err
		}
		if _, err := s.table.RecordRevealed(k, p.reports, status); err != nil {
			return fmt.Errorf("reveal feedback: %w", err)
		}
		after, err := s.table.GovernorLoss(k)
		if err != nil {
			return err
		}
		s.res.ExpectedLoss += after - before
	}
	s.pending[k] = q
	return nil
}

// FlushReveals forces every pending reveal, as at the end of a run, in
// provider order so one seed always sums the same floats in the same
// order and hands out the same argue draws.
func (s *Sim) FlushReveals() error {
	for k := range s.pending {
		if err := s.drainReveals(k, 0); err != nil {
			return err
		}
	}
	return nil
}

// Run executes n steps, flushes reveals, and returns the aggregated
// result.
func (s *Sim) Run(n int) (Result, error) {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return Result{}, err
		}
	}
	if err := s.FlushReveals(); err != nil {
		return Result{}, err
	}
	return s.Snapshot()
}

// Snapshot returns the current metrics without advancing the
// simulation.
func (s *Sim) Snapshot() (Result, error) {
	res := s.res
	if res.Transactions > 0 {
		res.UncheckedFrac = float64(res.Unchecked) / float64(res.Transactions)
		res.CheckFrac = float64(res.Checked) / float64(res.Transactions)
	}
	if s.table != nil {
		res.Regret = make([]float64, s.topo.Providers())
		res.BestLoss = make([]float64, s.topo.Providers())
		for k := 0; k < s.topo.Providers(); k++ {
			r, err := s.table.Regret(k)
			if err != nil {
				return Result{}, err
			}
			res.Regret[k] = r
			in, err := s.table.Instance(k)
			if err != nil {
				return Result{}, err
			}
			_, best := in.BestExpert()
			res.BestLoss[k] = best
		}
		shares, err := s.table.RevenueShares()
		if err != nil {
			return Result{}, err
		}
		res.RevenueShares = shares
	}
	return res, nil
}
