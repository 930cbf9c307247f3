// Package rwm implements the Randomized Weighted Majority machinery
// that the paper's reputation mechanism instantiates per provider.
//
// Theorem 1 of the paper is "an extension of the result for the
// Randomized Weighted Majority (RWM) Algorithm in the problem of
// learning with expert advice". The experts are the r collectors
// overseeing one provider; the governor draws a collector with
// probability proportional to its weight, and when the true status of
// an unchecked transaction is later revealed, weights update
// multiplicatively:
//
//	right judgment   → weight × 1
//	wrong judgment   → weight × γ_t
//	missed/discarded → weight × β
//
// with γ_t = max{ (β−1)/L_t + (β+1)/2 , (β²+β)/2 } and
// L_t = 2·W_wrong / (W_right + W_wrong), which satisfies the paper's
// required chain β² ≤ γ_t ≤ β ≤ ½(γ_t−1)·L_t + 1 ≤ 1.
//
// The package tracks the governor's accumulated expected loss
// L_T = Σ_t L_t and each expert's accumulated loss (2 per wrong
// judgment, 1 per miss — the exponents of γ≥β² and β), so benchmarks
// can measure the regret L_T − S^min_T that Theorem 1 bounds by
// O(√T).
package rwm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadBeta reports a β outside the open interval (0, 1).
	ErrBadBeta = errors.New("rwm: beta must be in (0, 1)")
	// ErrBadExperts reports a non-positive expert count.
	ErrBadExperts = errors.New("rwm: need at least one expert")
	// ErrBadOutcomes reports an outcome slice whose length differs
	// from the expert count.
	ErrBadOutcomes = errors.New("rwm: outcome count mismatch")
	// ErrNoParticipants reports a draw over an empty reporter set.
	ErrNoParticipants = errors.New("rwm: no participating experts")
)

// Outcome classifies one expert's behaviour on one revealed
// transaction.
type Outcome int

// Outcomes, mirroring Algorithm 3 case 3.
const (
	// OutcomeRight: the expert labeled the transaction correctly;
	// weight unchanged, loss 0.
	OutcomeRight Outcome = iota + 1
	// OutcomeAbsent: the expert discarded (failed to report) the
	// transaction; weight × β, loss 1.
	OutcomeAbsent
	// OutcomeWrong: the expert labeled incorrectly; weight × γ_t,
	// loss 2.
	OutcomeWrong
)

// Loss returns the β-exponent loss of the outcome: 0, 1, or 2.
func (o Outcome) Loss() float64 {
	switch o {
	case OutcomeRight:
		return 0
	case OutcomeAbsent:
		return 1
	case OutcomeWrong:
		return 2
	default:
		return 0
	}
}

// String returns the lowercase outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeRight:
		return "right"
	case OutcomeAbsent:
		return "absent"
	case OutcomeWrong:
		return "wrong"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Every product (a halving too, which the compiler turns into one)
// that feeds a sum in this package and in package reputation is an
// explicit float64(...): Go then rounds it before the sum, instead of
// fusing the two into one multiply-add as it may on arm64, ppc64le,
// s390x and riscv64, so every replica computes bit-identical weights
// on every architecture (make fma-check).

// Gamma computes γ_t for the given β and expected loss L ∈ [0, 2]:
//
//	γ_t = max{ (β−1)/L + (β+1)/2 , (β²+β)/2 }
//
// When L = 0 no weight is multiplied by γ_t; the floor value is
// returned for completeness.
func Gamma(beta, loss float64) float64 {
	floor := (float64(beta*beta) + beta) / 2
	if loss <= 0 {
		return floor
	}
	g := (beta-1)/loss + float64((beta+1)/2)
	if g < floor {
		return floor
	}
	return g
}

// RecommendedBeta returns the paper's tuning β = 1 − 4·√(log₂(r)/T),
// clamped to the interval [0.1, 0.9] on which the proof's logarithm
// bound −log β/(1−β) ≤ 17/2 − 8β holds. (The paper's worked example —
// r = 8, condition holds for T ≤ 4800 — pins the logarithm base to 2.)
func RecommendedBeta(experts int, horizon int) float64 {
	if experts < 2 || horizon < 1 {
		return 0.9
	}
	b := 1 - float64(4*math.Sqrt(math.Log2(float64(experts))/float64(horizon)))
	if b < 0.1 {
		return 0.1
	}
	if b > 0.9 {
		return 0.9
	}
	return b
}

// TheoremOneBound returns the paper's explicit regret bound
// 16·√(log₂(r)·T) for the recommended β.
func TheoremOneBound(experts int, horizon int) float64 {
	if experts < 2 || horizon < 1 {
		return 0
	}
	return 16 * math.Sqrt(math.Log2(float64(experts))*float64(horizon))
}

// Instance is one multiplicative-weights game: the r collectors
// overseeing one provider, from one governor's point of view.
// Instance is not safe for concurrent use; the owning governor
// serializes access.
type Instance struct {
	beta       float64
	weights    []float64
	expertLoss []float64
	// govLoss accumulates Σ_t L_t, the governor's expected loss on
	// revealed unchecked transactions.
	govLoss float64
	rounds  int
}

// New creates an instance with n experts, all starting at weight 1 (so
// W_0 = r as in the proof of Theorem 1).
func New(n int, beta float64) (*Instance, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%d experts: %w", n, ErrBadExperts)
	}
	if beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("beta %v: %w", beta, ErrBadBeta)
	}
	in := &Instance{
		beta:       beta,
		weights:    make([]float64, n),
		expertLoss: make([]float64, n),
	}
	for i := range in.weights {
		in.weights[i] = 1
	}
	return in, nil
}

// Experts returns the number of experts.
func (in *Instance) Experts() int { return len(in.weights) }

// Rounds returns how many reveals have been applied.
func (in *Instance) Rounds() int { return in.rounds }

// Weight returns expert i's current weight.
func (in *Instance) Weight(i int) float64 { return in.weights[i] }

// minWeight keeps weights strictly positive so probabilities stay
// defined; 1e-300 is far below any reachable multiplicative decay for
// realistic horizons yet comfortably above the smallest subnormal.
const minWeight = 1e-300

// Probabilities returns the draw distribution over the given
// participating experts (those that reported the transaction),
// proportional to weight. The slice is indexed like participants.
func (in *Instance) Probabilities(participants []int) ([]float64, error) {
	total, err := in.total(participants)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(participants))
	for k, i := range participants {
		out[k] = in.weights[i] / total
	}
	return out, nil
}

// total returns the participants' weight sum W, the draw's denominator.
func (in *Instance) total(participants []int) (float64, error) {
	if len(participants) == 0 {
		return 0, ErrNoParticipants
	}
	var total float64
	for _, i := range participants {
		total += in.weights[i]
	}
	if total <= 0 {
		return 0, fmt.Errorf("participating weight sum %v: %w", total, ErrNoParticipants)
	}
	return total, nil
}

// Pick draws one participating expert with probability proportional to
// weight, returning its expert index and the probability with which it
// was chosen (the Pr_{j,i,k,tx} of Algorithm 2). It computes each
// probability as Probabilities does, in the same order, without
// allocating for them.
func (in *Instance) Pick(rng *rand.Rand, participants []int) (expert int, prob float64, err error) {
	total, err := in.total(participants)
	if err != nil {
		return 0, 0, err
	}
	u := rng.Float64()
	var acc float64
	for _, i := range participants {
		p := in.weights[i] / total
		acc += p
		if u < acc {
			return i, p, nil
		}
	}
	// Floating-point slack: return the last participant.
	last := participants[len(participants)-1]
	return last, in.weights[last] / total, nil
}

// RevealResult reports what one reveal did.
type RevealResult struct {
	// Loss is L_t = 2·W_wrong/(W_right + W_wrong), the governor's
	// expected loss on the transaction.
	Loss float64
	// Gamma is the γ_t applied to wrong experts.
	Gamma float64
}

// Reveal applies Algorithm 3 case 3 for one revealed transaction:
// outcomes[i] describes expert i's behaviour. It returns the realized
// L_t and γ_t and accrues per-expert and governor losses.
func (in *Instance) Reveal(outcomes []Outcome) (RevealResult, error) {
	if len(outcomes) != len(in.weights) {
		return RevealResult{}, fmt.Errorf("%d outcomes for %d experts: %w", len(outcomes), len(in.weights), ErrBadOutcomes)
	}
	var wRight, wWrong float64
	for i, o := range outcomes {
		switch o {
		case OutcomeRight:
			wRight += in.weights[i]
		case OutcomeWrong:
			wWrong += in.weights[i]
		case OutcomeAbsent:
			// absent experts are in W_1, outside the loss ratio
		default:
			return RevealResult{}, fmt.Errorf("outcome %d for expert %d: %w", o, i, ErrBadOutcomes)
		}
	}
	var loss float64
	if wRight+wWrong > 0 {
		loss = 2 * wWrong / (wRight + wWrong)
	}
	gamma := Gamma(in.beta, loss)

	for i, o := range outcomes {
		switch o {
		case OutcomeWrong:
			in.weights[i] *= gamma
		case OutcomeAbsent:
			in.weights[i] *= in.beta
		}
		if in.weights[i] < minWeight {
			in.weights[i] = minWeight
		}
		in.expertLoss[i] += o.Loss()
	}
	in.govLoss += loss
	in.rounds++
	return RevealResult{Loss: loss, Gamma: gamma}, nil
}

// Restore overwrites the instance's full mutable state — weights,
// per-expert losses, accumulated governor loss, and round count — from
// a snapshot. The caller checks the values are reachable, weights in
// (0, 1] above all; they are copied verbatim so a restored instance
// snapshots to the same bytes.
func (in *Instance) Restore(weights, expertLoss []float64, govLoss float64, rounds int) error {
	if len(weights) != len(in.weights) || len(expertLoss) != len(in.expertLoss) {
		return fmt.Errorf("restore %d weights / %d losses into %d experts: %w",
			len(weights), len(expertLoss), len(in.weights), ErrBadOutcomes)
	}
	if rounds < 0 {
		return fmt.Errorf("restore %d rounds: %w", rounds, ErrBadOutcomes)
	}
	copy(in.weights, weights)
	copy(in.expertLoss, expertLoss)
	in.govLoss = govLoss
	in.rounds = rounds
	return nil
}

// GovernorLoss returns L_T, the accumulated expected loss.
func (in *Instance) GovernorLoss() float64 { return in.govLoss }

// ExpertLoss returns expert i's accumulated loss S_i.
func (in *Instance) ExpertLoss(i int) float64 { return in.expertLoss[i] }

// BestExpert returns the index and accumulated loss of the
// best-behaving expert (minimum S_i).
func (in *Instance) BestExpert() (int, float64) {
	best, bestLoss := 0, math.Inf(1)
	for i, l := range in.expertLoss {
		if l < bestLoss {
			best, bestLoss = i, l
		}
	}
	return best, bestLoss
}

// Regret returns L_T − S^min_T, the quantity Theorem 1 bounds by
// O(√T).
func (in *Instance) Regret() float64 {
	_, s := in.BestExpert()
	return in.govLoss - s
}
