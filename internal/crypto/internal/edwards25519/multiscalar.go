package edwards25519

// This file is not part of the Go copy (see README.md): it adds the two
// operations batch verification needs on top of it, built only from the
// copy's own point formulas and tables.

// VarTimeMultiScalarBaseMult sets v = b·B + Σ scalars[i]·points[i], where
// B is the canonical generator, and returns v.
//
// It is Straus's interleaved method: one shared chain of 256 doublings,
// with each variable point added through a width-5 NAF table built here
// and B through the precomputed width-8 table. Execution time depends
// on the inputs.
func (v *Point) VarTimeMultiScalarBaseMult(b *Scalar, scalars []Scalar, points []*Point) *Point {
	if len(scalars) != len(points) {
		panic("edwards25519: VarTimeMultiScalarBaseMult called with different size inputs")
	}
	checkInitialized(points...)

	tables := make([]nafLookupTable5, len(points))
	nafs := make([][256]int8, len(points))
	top := -1
	for i, p := range points {
		tables[i].FromP3(p)
		nafs[i] = scalars[i].nonAdjacentForm(5)
		top = max(top, highestDigit(&nafs[i]))
	}
	basepointNafTable := basepointNafTable()
	bNaf := b.nonAdjacentForm(8)
	top = max(top, highestDigit(&bNaf))

	multA := &projCached{}
	multB := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()
	for i := top; i >= 0; i-- {
		tmp1.Double(tmp2)
		for j := range nafs {
			if d := nafs[j][i]; d > 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(multA, d)
				tmp1.Add(v, multA)
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(multA, -d)
				tmp1.Sub(v, multA)
			}
		}
		if d := bNaf[i]; d > 0 {
			v.fromP1xP1(tmp1)
			basepointNafTable.SelectInto(multB, d)
			tmp1.AddAffine(v, multB)
		} else if d < 0 {
			v.fromP1xP1(tmp1)
			basepointNafTable.SelectInto(multB, -d)
			tmp1.SubAffine(v, multB)
		}
		tmp2.FromP1xP1(tmp1)
	}
	v.fromP2(tmp2)
	return v
}

// highestDigit returns the index of naf's most significant nonzero
// digit, or -1 when every digit is zero.
func highestDigit(naf *[256]int8) int {
	for i := len(naf) - 1; i >= 0; i-- {
		if naf[i] != 0 {
			return i
		}
	}
	return -1
}

// MultByCofactor sets v = 8·p, and returns v.
func (v *Point) MultByCofactor(p *Point) *Point {
	checkInitialized(p)
	var result projP1xP1
	pp := (&projP2{}).FromP3(p)
	result.Double(pp)
	pp.FromP1xP1(&result)
	result.Double(pp)
	pp.FromP1xP1(&result)
	result.Double(pp)
	return v.fromP1xP1(&result)
}
