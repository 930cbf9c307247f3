package reputation

import (
	"math"
	"testing"

	"repchain/internal/rwm"
)

// TestArithmeticPinnedAcrossArchitectures pins, bit for bit, the
// numbers every replica must compute alike at β = 0.95 and f = 0.3: γ
// (its floor (β²+β)/2 included) and the check coin's bar 1 − f·Pr. The
// floor and the bars at these Pr round differently when the compiler
// fuses the product into the sum, as it may on arm64, ppc64le, s390x and
// riscv64, so a lost float64(...) fails here on those hosts; make
// fma-check finds it on any host.
func TestArithmeticPinnedAcrossArchitectures(t *testing.T) {
	const beta = 0.95
	for _, c := range []struct {
		loss float64
		bits uint64
	}{
		{0, 0x3feda3d70a3d70a4}, // the floor (β²+β)/2
		{1, 0x3feda3d70a3d70a4}, // (β−1)/L + (β+1)/2 is below the floor
		{1.7, 0x3fee424242424242},
		{2, 0x3fee666666666666},
	} {
		if got := rwm.Gamma(beta, c.loss); math.Float64bits(got) != c.bits {
			t.Errorf("Gamma(%v, %v) = %x, want %x", beta, c.loss, math.Float64bits(got), c.bits)
		}
	}
	p := Params{Beta: beta, F: 0.3, Mu: 1.1, Nu: 2}
	for _, c := range []struct {
		prob float64
		bits uint64
	}{
		{0.042, 0x3fef98c7e28240b8},
		{0.116, 0x3feee2eb1c432ca6},
		{0.126, 0x3feeca57a786c226},
		{0.5, 0x3feb333333333333},
	} {
		if got := p.checkThreshold(c.prob); math.Float64bits(got) != c.bits {
			t.Errorf("check bar at Pr %v = %x, want %x", c.prob, math.Float64bits(got), c.bits)
		}
	}
}
