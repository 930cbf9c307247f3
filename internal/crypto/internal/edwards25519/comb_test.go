package edwards25519

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// scalarFromBig returns x mod ℓ as a Scalar.
func scalarFromBig(t testing.TB, x *big.Int) *Scalar {
	t.Helper()
	order, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	buf := new(big.Int).Mod(x, order).FillBytes(make([]byte, 32))
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	s, err := NewScalar().SetCanonicalBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// combScalars returns random scalars and the edge cases of the digit
// recoding: 0, 1, ℓ−1, 8·16^5, all nibbles 8, and 2^252 − 1, whose NAF
// carries up to a top digit at bit 252.
func combScalars(t *testing.T) map[string]*Scalar {
	t.Helper()
	one := big.NewInt(1)
	eights, _ := new(big.Int).SetString("0888888888888888888888888888888888888888888888888888888888888888", 16)
	out := map[string]*Scalar{
		"0":         scalarFromBig(t, big.NewInt(0)),
		"1":         scalarFromBig(t, one),
		"ℓ−1":       scalarFromBig(t, big.NewInt(-1)),
		"8·16^5":    scalarFromBig(t, new(big.Int).Lsh(big.NewInt(8), 20)),
		"0x0888…8":  scalarFromBig(t, eights),
		"2^252 − 1": scalarFromBig(t, new(big.Int).Sub(new(big.Int).Lsh(one, 252), one)),
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 8; n++ {
		wide := make([]byte, 64)
		rng.Read(wide)
		s, err := NewScalar().SetUniformBytes(wide)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("random %d", n)] = s
	}
	return out
}

// combPoints returns a random point, the basepoint, the identity, a
// point of order 8 and a random point plus it.
func combPoints(t testing.TB) map[string]*Point {
	t.Helper()
	r := scalarFromBig(t, big.NewInt(0x5eed))
	random := new(Point).VarTimeDoubleScalarBaseMult(NewScalar(), NewGeneratorPoint(), r)
	var torsion *Point
	minusOne := scalarFromBig(t, big.NewInt(-1))
	for y := byte(2); torsion == nil; y++ {
		enc := make([]byte, 32)
		enc[0] = y
		p, err := new(Point).SetBytes(enc)
		if err != nil {
			continue
		}
		// [ℓ]P is P's small-order component; keep it if its order is 8.
		tp := new(Point).VarTimeDoubleScalarBaseMult(minusOne, p, NewScalar())
		tp.Add(tp, p)
		t4 := new(Point).Add(tp, tp)
		if t4.Add(t4, t4); t4.Equal(NewIdentityPoint()) == 0 {
			torsion = tp
		}
	}
	return map[string]*Point{
		"random":           random,
		"basepoint":        NewGeneratorPoint(),
		"identity":         NewIdentityPoint(),
		"order 8":          torsion,
		"random + order 8": new(Point).Add(random, torsion),
	}
}

// TestCombMatchesDoubleScalarMult checks the comb multiplies against
// Go's VarTimeDoubleScalarBaseMult: a·P through P's table, and
// a·P + b·B through P's and the basepoint's, on every pair of edge and
// random scalars and every test point.
func TestCombMatchesDoubleScalarMult(t *testing.T) {
	scalars := combScalars(t)
	zero := NewScalar()
	base := BasepointCombTable()
	for pname, p := range combPoints(t) {
		table := new(CombTable).FromP3(p)
		for aname, a := range scalars {
			want := new(Point).VarTimeDoubleScalarBaseMult(a, p, zero)
			got := new(Point).VarTimeCombMult([]Scalar{*a}, []*CombTable{table})
			if got.Equal(want) != 1 {
				t.Fatalf("%s·(%s): comb differs", aname, pname)
			}
			for bname, b := range scalars {
				want := new(Point).VarTimeDoubleScalarBaseMult(a, p, b)
				got := new(Point).VarTimeCombMult([]Scalar{*b, *a}, []*CombTable{base, table})
				if got.Equal(want) != 1 {
					t.Fatalf("%s·(%s) + %s·B: comb-double differs", aname, pname, bname)
				}
			}
		}
	}
	if got := new(Point).VarTimeCombMult(nil, nil); got.Equal(NewIdentityPoint()) != 1 {
		t.Fatal("the empty comb sum is not the identity")
	}
}

// TestMultiScalarMatchesDoubleScalarMult checks the Straus multiply
// against a sum of VarTimeDoubleScalarBaseMult terms.
func TestMultiScalarMatchesDoubleScalarMult(t *testing.T) {
	zero := NewScalar()
	var scalars []Scalar
	var points []*Point
	want := NewIdentityPoint()
	for _, p := range combPoints(t) {
		for _, s := range combScalars(t) {
			scalars = append(scalars, *s)
			points = append(points, p)
			want.Add(want, new(Point).VarTimeDoubleScalarBaseMult(s, p, zero))
		}
	}
	if got := new(Point).VarTimeMultiScalarMult(scalars, points); got.Equal(want) != 1 {
		t.Fatal("Straus sum differs from the sum of its terms")
	}
}

// FuzzCombMult checks a·P + b·B through the comb tables against
// VarTimeDoubleScalarBaseMult for scalars the fuzzer picks (its bytes
// reduced mod ℓ) and P = [p]B, plus a point of order 8 when torsion is
// set.
func FuzzCombMult(f *testing.F) {
	f.Add([]byte{}, []byte{1}, []byte{2}, false)
	f.Add([]byte{0x88, 0x88, 0x88}, []byte{0xff, 0xff}, []byte{7}, true)
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0x08}, 32), []byte{0x5e, 0xed}, true)
	order8 := combPoints(f)["order 8"]
	scalar := func(b []byte) *Scalar {
		wide := make([]byte, 64)
		copy(wide, b)
		s, err := NewScalar().SetUniformBytes(wide)
		if err != nil {
			panic(err)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, a, b, p []byte, torsion bool) {
		sa, sb := scalar(a), scalar(b)
		point := new(Point).VarTimeDoubleScalarBaseMult(NewScalar(), NewGeneratorPoint(), scalar(p))
		if torsion {
			point.Add(point, order8)
		}
		want := new(Point).VarTimeDoubleScalarBaseMult(sa, point, sb)
		got := new(Point).VarTimeCombMult([]Scalar{*sb, *sa}, []*CombTable{BasepointCombTable(), new(CombTable).FromP3(point)})
		if got.Equal(want) != 1 {
			t.Fatalf("comb-double differs for a=%x b=%x p=%x torsion=%v", a, b, p, torsion)
		}
	})
}

func BenchmarkCombTable(b *testing.B) {
	p := NewGeneratorPoint()
	var table CombTable
	for i := 0; i < b.N; i++ {
		table.FromP3(p)
	}
}
