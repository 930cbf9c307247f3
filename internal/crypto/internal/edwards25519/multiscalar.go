package edwards25519

// This file is not part of the Go copy (see README.md): it adds the
// cofactor multiplication the cofactored verification rule needs, built
// only from the copy's own point formulas.

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
