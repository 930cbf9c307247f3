package rwm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, n int, beta float64) *Instance {
	t.Helper()
	in, err := New(n, beta)
	if err != nil {
		t.Fatalf("New(%d, %v) error = %v", n, beta, err)
	}
	return in
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		beta    float64
		wantErr error
	}{
		{"ok", 8, 0.9, nil},
		{"zero experts", 0, 0.9, ErrBadExperts},
		{"negative experts", -1, 0.9, ErrBadExperts},
		{"beta zero", 4, 0, ErrBadBeta},
		{"beta one", 4, 1, ErrBadBeta},
		{"beta negative", 4, -0.5, ErrBadBeta},
		{"beta above one", 4, 1.5, ErrBadBeta},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.n, tt.beta)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("New() error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestInitialWeightsAreOne(t *testing.T) {
	in := mustNew(t, 5, 0.9)
	for i := 0; i < 5; i++ {
		if in.Weight(i) != 1 {
			t.Fatalf("Weight(%d) = %v, want 1", i, in.Weight(i))
		}
	}
}

func TestOutcomeLoss(t *testing.T) {
	if OutcomeRight.Loss() != 0 || OutcomeAbsent.Loss() != 1 || OutcomeWrong.Loss() != 2 {
		t.Fatal("outcome losses must be 0/1/2")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeRight.String() != "right" || OutcomeAbsent.String() != "absent" || OutcomeWrong.String() != "wrong" {
		t.Fatal("outcome strings wrong")
	}
}

// TestGammaInequalityChain verifies the paper's required chain
// β² ≤ γ ≤ β ≤ ½(γ−1)L + 1 ≤ 1 for representative parameters.
func TestGammaInequalityChain(t *testing.T) {
	betas := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99}
	losses := []float64{0.01, 0.1, 0.5, 1, 1.5, 1.9, 2}
	for _, beta := range betas {
		for _, loss := range losses {
			g := Gamma(beta, loss)
			if g < beta*beta-1e-12 {
				t.Fatalf("β=%v L=%v: γ=%v < β²=%v", beta, loss, g, beta*beta)
			}
			if g > beta+1e-12 {
				t.Fatalf("β=%v L=%v: γ=%v > β=%v", beta, loss, g, beta)
			}
			upper := 0.5*(g-1)*loss + 1
			if beta > upper+1e-12 {
				t.Fatalf("β=%v L=%v: β > ½(γ−1)L+1 = %v", beta, loss, upper)
			}
			if upper > 1+1e-12 {
				t.Fatalf("β=%v L=%v: ½(γ−1)L+1 = %v > 1", beta, loss, upper)
			}
		}
	}
}

func TestGammaZeroLoss(t *testing.T) {
	beta := 0.9
	want := (beta*beta + beta) / 2
	if g := Gamma(beta, 0); g != want {
		t.Fatalf("Gamma(β, 0) = %v, want floor %v", g, want)
	}
}

func TestGammaAtMaxLossEqualsBeta(t *testing.T) {
	// At L = 2 the formula gives exactly β.
	for _, beta := range []float64{0.2, 0.5, 0.9} {
		if g := Gamma(beta, 2); math.Abs(g-beta) > 1e-12 {
			t.Fatalf("Gamma(%v, 2) = %v, want β", beta, g)
		}
	}
}

func TestQuickGammaChain(t *testing.T) {
	f := func(rb, rl uint16) bool {
		beta := 0.01 + 0.98*float64(rb)/65535.0 // (0.01, 0.99)
		loss := 2 * float64(rl) / 65535.0       // [0, 2]
		g := Gamma(beta, loss)
		if g < beta*beta-1e-9 || g > beta+1e-9 {
			return false
		}
		upper := 0.5*(g-1)*loss + 1
		return beta <= upper+1e-9 && upper <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendedBeta(t *testing.T) {
	// Paper's example: r = 8, T = 4800 is the largest horizon with
	// β ≤ 0.9; at that point β should be exactly 0.9.
	b := RecommendedBeta(8, 4800)
	if math.Abs(b-0.9) > 1e-9 {
		t.Fatalf("RecommendedBeta(8, 4800) = %v, want 0.9", b)
	}
	// Shorter horizons give smaller β (more aggressive decay).
	if RecommendedBeta(8, 1000) >= RecommendedBeta(8, 4000) {
		t.Fatal("β should increase with horizon")
	}
	// Clamps.
	if RecommendedBeta(8, 1) != 0.1 {
		t.Fatalf("tiny horizon should clamp to 0.1, got %v", RecommendedBeta(8, 1))
	}
	if RecommendedBeta(8, 1<<30) != 0.9 {
		t.Fatal("huge horizon should clamp to 0.9")
	}
	if RecommendedBeta(1, 100) != 0.9 || RecommendedBeta(0, 100) != 0.9 {
		t.Fatal("degenerate expert counts should default to 0.9")
	}
}

func TestTheoremOneBound(t *testing.T) {
	if got := TheoremOneBound(8, 4800); math.Abs(got-16*math.Sqrt(3*4800)) > 1e-9 {
		t.Fatalf("TheoremOneBound(8,4800) = %v", got)
	}
	if TheoremOneBound(0, 100) != 0 || TheoremOneBound(8, 0) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestRevealUpdatesWeights(t *testing.T) {
	in := mustNew(t, 3, 0.9)
	res, err := in.Reveal([]Outcome{OutcomeRight, OutcomeWrong, OutcomeAbsent})
	if err != nil {
		t.Fatalf("Reveal() error = %v", err)
	}
	// W_right = 1, W_wrong = 1 → L = 1.
	if math.Abs(res.Loss-1) > 1e-12 {
		t.Fatalf("Loss = %v, want 1", res.Loss)
	}
	wantGamma := Gamma(0.9, 1)
	if res.Gamma != wantGamma {
		t.Fatalf("Gamma = %v, want %v", res.Gamma, wantGamma)
	}
	if in.Weight(0) != 1 {
		t.Fatalf("right expert weight = %v, want 1", in.Weight(0))
	}
	if math.Abs(in.Weight(1)-wantGamma) > 1e-12 {
		t.Fatalf("wrong expert weight = %v, want γ", in.Weight(1))
	}
	if math.Abs(in.Weight(2)-0.9) > 1e-12 {
		t.Fatalf("absent expert weight = %v, want β", in.Weight(2))
	}
	if in.Rounds() != 1 {
		t.Fatalf("Rounds() = %d, want 1", in.Rounds())
	}
}

func TestRevealAccruesLosses(t *testing.T) {
	in := mustNew(t, 2, 0.5)
	for i := 0; i < 4; i++ {
		if _, err := in.Reveal([]Outcome{OutcomeRight, OutcomeWrong}); err != nil {
			t.Fatal(err)
		}
	}
	if in.ExpertLoss(0) != 0 {
		t.Fatalf("right expert loss = %v, want 0", in.ExpertLoss(0))
	}
	if in.ExpertLoss(1) != 8 {
		t.Fatalf("wrong expert loss = %v, want 8", in.ExpertLoss(1))
	}
	best, s := in.BestExpert()
	if best != 0 || s != 0 {
		t.Fatalf("BestExpert() = %d, %v", best, s)
	}
	if in.GovernorLoss() <= 0 {
		t.Fatal("governor loss should be positive")
	}
	if in.Regret() != in.GovernorLoss() {
		t.Fatal("regret should equal governor loss when best expert is perfect")
	}
}

func TestRevealErrors(t *testing.T) {
	in := mustNew(t, 2, 0.9)
	if _, err := in.Reveal([]Outcome{OutcomeRight}); !errors.Is(err, ErrBadOutcomes) {
		t.Fatalf("short outcomes error = %v, want ErrBadOutcomes", err)
	}
	if _, err := in.Reveal([]Outcome{OutcomeRight, Outcome(9)}); !errors.Is(err, ErrBadOutcomes) {
		t.Fatalf("bad outcome error = %v, want ErrBadOutcomes", err)
	}
}

func TestWeightsStayPositive(t *testing.T) {
	in := mustNew(t, 2, 0.1)
	// Hammer one expert with wrong outcomes for many rounds; its
	// weight must remain positive so probabilities stay defined.
	for i := 0; i < 100000; i++ {
		if _, err := in.Reveal([]Outcome{OutcomeRight, OutcomeWrong}); err != nil {
			t.Fatal(err)
		}
	}
	if w := in.Weight(1); w <= 0 || math.IsNaN(w) {
		t.Fatalf("weight collapsed to %v", w)
	}
}

func TestProbabilities(t *testing.T) {
	in := mustNew(t, 4, 0.9)
	if err := in.Restore([]float64{3, 1, 1, 1}, make([]float64, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	probs, err := in.Probabilities([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[0]-0.75) > 1e-12 || math.Abs(probs[1]-0.25) > 1e-12 {
		t.Fatalf("Probabilities() = %v", probs)
	}
	if _, err := in.Probabilities(nil); !errors.Is(err, ErrNoParticipants) {
		t.Fatalf("empty participants error = %v, want ErrNoParticipants", err)
	}
}

func TestPickDistribution(t *testing.T) {
	in := mustNew(t, 3, 0.9)
	if err := in.Restore([]float64{8, 1, 1}, make([]float64, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 3)
	const trials = 20000
	for i := 0; i < trials; i++ {
		idx, prob, err := in.Pick(rng, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if prob <= 0 || prob > 1 {
			t.Fatalf("prob = %v out of range", prob)
		}
		counts[idx]++
	}
	// Expert 0 holds 80% of the weight; expect ~16000 draws. A ±3%
	// absolute tolerance is > 10 sigma for 20000 trials.
	got := float64(counts[0]) / trials
	if got < 0.77 || got > 0.83 {
		t.Fatalf("heavy expert drawn %.3f of the time, want ≈0.80", got)
	}
}

func TestPickSubset(t *testing.T) {
	in := mustNew(t, 5, 0.9)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		idx, _, err := in.Pick(rng, []int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		if idx != 2 && idx != 4 {
			t.Fatalf("Pick() returned non-participant %d", idx)
		}
	}
}

// TestTheoremOneEmpirical is the unit-level version of experiment E1:
// with one perfect expert and noisy peers, the realized regret stays
// under the explicit bound 16·√(log₂(r)·T).
func TestTheoremOneEmpirical(t *testing.T) {
	const (
		r = 8
		T = 4000
	)
	beta := RecommendedBeta(r, T)
	in, err := New(r, beta)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	outcomes := make([]Outcome, r)
	for round := 0; round < T; round++ {
		outcomes[0] = OutcomeRight // the well-behaved collector
		for i := 1; i < r; i++ {
			switch {
			case rng.Float64() < 0.4:
				outcomes[i] = OutcomeWrong
			case rng.Float64() < 0.2:
				outcomes[i] = OutcomeAbsent
			default:
				outcomes[i] = OutcomeRight
			}
		}
		if _, err := in.Reveal(outcomes); err != nil {
			t.Fatal(err)
		}
	}
	regret := in.Regret()
	bound := TheoremOneBound(r, T)
	if regret > bound {
		t.Fatalf("regret %v exceeds Theorem 1 bound %v", regret, bound)
	}
	if regret < 0 {
		t.Fatalf("negative regret %v: best expert accounting is broken", regret)
	}
}

// TestQuickGovernorLossBounded: for any outcome stream, the
// per-transaction governor loss is within [0, 2] and weights remain
// positive and finite.
func TestQuickGovernorLossBounded(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		in, err := New(4, 0.7)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < int(rounds); r++ {
			outs := make([]Outcome, 4)
			for i := range outs {
				outs[i] = Outcome(rng.Intn(3) + 1)
			}
			res, err := in.Reveal(outs)
			if err != nil {
				return false
			}
			if res.Loss < 0 || res.Loss > 2 {
				return false
			}
			for i := 0; i < 4; i++ {
				w := in.Weight(i)
				if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReveal8Experts(b *testing.B) {
	in, err := New(8, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	outs := []Outcome{
		OutcomeRight, OutcomeWrong, OutcomeAbsent, OutcomeRight,
		OutcomeRight, OutcomeWrong, OutcomeRight, OutcomeAbsent,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Reveal(outs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPick8Experts(b *testing.B) {
	in, err := New(8, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	parts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.Pick(rng, parts); err != nil {
			b.Fatal(err)
		}
	}
}
