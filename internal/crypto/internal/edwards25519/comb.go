package edwards25519

import (
	"sync"

	"repchain/internal/crypto/internal/edwards25519/field"
)

// This file is not part of the Go copy (see README.md): it adds
// variable-time multiplication by a fixed point through a precomputed
// comb table, for verifiers that check many signatures under the same
// few keys and the basepoint.

// CombTable is a fixed-base table for one point P: points[j][m] is
// (2m+1)·256^j·P in affine form, for j < 32 and m < 8. It is 30 KiB.
// With a scalar's width-5 NAF digits dᵢ (odd, |dᵢ| < 16, about one bit
// in six nonzero) grouped by i mod 8,
//
//	s·P = Σ_{r<8} 2^r · Σ_{i ≡ r} dᵢ·256^⌊i/8⌋·P,
//
// so a multiplication is one table addition per nonzero digit, about
// 42, and a shared fold of the eight sums: seven doublings and seven
// additions, against ~253 doublings for a variable-base method.
type CombTable struct {
	points [32][8]affineCached
}

// FromP3 builds the table for q, and returns t. It costs about as much
// as two variable-base multiplications.
func (t *CombTable) FromP3(q *Point) *CombTable {
	checkInitialized(q)
	var ext [32][8]Point
	var tmp projP1xP1
	var p2 projP2
	var twice projCached
	base := *q
	for j := range ext {
		row := &ext[j]
		row[0] = base
		p2.FromP3(&base)
		var b2 Point
		twice.FromP3(b2.fromP1xP1(tmp.Double(&p2)))
		for m := 1; m < 8; m++ {
			row[m].fromP1xP1(tmp.Add(&row[m-1], &twice))
		}
		// 256^(j+1)·q: eight doublings of 256^j·q.
		for n := 0; n < 7; n++ {
			p2.FromP1xP1(tmp.Double(&p2))
		}
		base.fromP1xP1(tmp.Double(&p2))
	}

	// One inversion for all 256 Z coordinates (Montgomery's trick):
	// prefix[n] is the product of the first n+1 of them.
	var prefix [32 * 8]field.Element
	var acc field.Element
	acc.One()
	for n := range prefix {
		acc.Multiply(&acc, &ext[n/8][n%8].z)
		prefix[n] = acc
	}
	var inv, invZ field.Element
	inv.Invert(&acc)
	for n := len(prefix) - 1; n >= 0; n-- {
		p := &ext[n/8][n%8]
		if n > 0 {
			invZ.Multiply(&inv, &prefix[n-1])
			inv.Multiply(&inv, &p.z)
		} else {
			invZ = inv
		}
		e := &t.points[n/8][n%8]
		e.YplusX.Add(&p.y, &p.x)
		e.YminusX.Subtract(&p.y, &p.x)
		e.T2d.Multiply(&p.t, d2)
		e.YplusX.Multiply(&e.YplusX, &invZ)
		e.YminusX.Multiply(&e.YminusX, &invZ)
		e.T2d.Multiply(&e.T2d, &invZ)
	}
	return t
}

// BasepointCombTable returns the comb table of the canonical generator,
// built the first time it is used.
func BasepointCombTable() *CombTable {
	basepointComb.once.Do(func() {
		basepointComb.table.FromP3(NewGeneratorPoint())
	})
	return &basepointComb.table
}

var basepointComb struct {
	table CombTable
	once  sync.Once
}

// VarTimeCombMult sets v = Σ scalars[i]·Pᵢ, where tables[i] is the comb
// table of Pᵢ, and returns v. It walks each table once into eight
// shared sums and folds them. Execution time depends on the inputs.
func (v *Point) VarTimeCombMult(scalars []Scalar, tables []*CombTable) *Point {
	if len(scalars) != len(tables) {
		panic("edwards25519: VarTimeCombMult called with different size inputs")
	}
	// sums[r] collects the terms of the digits at positions i ≡ r mod 8.
	var sums [8]Point
	for r := range sums {
		sums[r].Set(identity)
	}
	var tmp projP1xP1
	for i := range scalars {
		naf := scalars[i].nonAdjacentForm(5)
		t := tables[i]
		for pos, d := range naf {
			acc, row := &sums[pos%8], &t.points[pos/8]
			switch {
			case d > 0:
				acc.fromP1xP1(tmp.AddAffine(acc, &row[d/2]))
			case d < 0:
				acc.fromP1xP1(tmp.SubAffine(acc, &row[-d/2]))
			}
		}
	}
	// v = Σ 2^r·sums[r], by Horner's rule from the top.
	var p2 projP2
	var cached projCached
	v.Set(&sums[7])
	for r := 6; r >= 0; r-- {
		v.fromP1xP1(tmp.Double(p2.FromP3(v)))
		v.fromP1xP1(tmp.Add(v, cached.FromP3(&sums[r])))
	}
	return v
}
