package crypto

// The one Ed25519 verification rule (DESIGN.md §4f). A signature
// (R, S) by the key A over M is accepted iff
//
//   - A decodes to a curve point, exactly as crypto/ed25519 decodes it
//     (non-canonical encodings of valid points accepted);
//   - S < ℓ, and R is the canonical encoding of a curve point — the
//     only R crypto/ed25519's byte comparison can accept;
//   - [8]([S]B − [k]A − R) = 0, with k = SHA-512(R ‖ A ‖ M) mod ℓ.
//
// The last clause is crypto/ed25519's equation [S]B − [k]A = R
// multiplied by the cofactor, the rule ZIP-215 adopted so that a batch
// check and a single check agree on every input. The two rules differ
// on one shape only: a residue [S]B − [k]A − R that is a nonzero point
// of small order, which this rule accepts and crypto/ed25519 rejects.
// Honest signers never produce one; TestLowOrderResidueAccepted builds
// one. PublicKey.Verify and VerifyBatch both apply this rule, so a
// signature's verdict never depends on the batch it is checked in.

import (
	"crypto/sha512"
	"sync"
	"sync/atomic"

	"repchain/internal/crypto/internal/edwards25519"
)

// verifyKey is a public key's verification form: its decoded point and,
// for a prepared key, its comb table (edwards25519.CombTable, 30 KiB),
// with which [k]A costs one table walk instead of a doubling chain.
// A prepared key builds it once, on its first verification, and every
// copy of the key shares it. The scalars it multiplies are public, so
// the variable-time walk leaks nothing; signing stays on
// crypto/ed25519's constant-time path.
type verifyKey struct {
	once  sync.Once
	ok    bool // the key decodes to a curve point
	point edwards25519.Point
	table *edwards25519.CombTable // nil for a key without a table
}

// tablesBuilt counts the comb tables built for keys in this process.
var tablesBuilt atomic.Int64

// KeyTablesBuilt returns how many key comb tables this process has
// built: one per distinct key object verified, so a count that grows
// after warm-up means a path verifies under fresh PublicKey values
// where it should use the roster's.
func KeyTablesBuilt() int64 { return tablesBuilt.Load() }

// decode fills v from the key bytes, with a comb table when prepared.
func (v *verifyKey) decode(k []byte, prepared bool) {
	if _, err := v.point.SetBytes(k); err != nil {
		return
	}
	v.ok = true
	if prepared {
		v.table = new(edwards25519.CombTable).FromP3(&v.point)
		tablesBuilt.Add(1)
	}
}

// form returns pub's verification form, building a prepared key's on
// first use. A key without one (a PublicKey literal) is decoded afresh
// on every call and gets no table. Callers have checked pub's length.
func (pub PublicKey) form() *verifyKey {
	if pub.v == nil {
		v := new(verifyKey)
		v.decode(pub.k, false)
		return v
	}
	pub.v.once.Do(func() { pub.v.decode(pub.k, true) })
	return pub.v
}

// sigCheck is one signature parsed for the equation: its nonce point R,
// its scalar S and its challenge k. The key is held by the caller,
// which looks up each distinct key's form once.
type sigCheck struct {
	r    edwards25519.Point
	k, s edwards25519.Scalar
}

// parse fills c from a SignatureSize signature over msg by the key
// bytes pub. It reports false, and the signature fails, when S ≥ ℓ or R
// is not the canonical encoding of a point.
func (c *sigCheck) parse(pub, msg, sig []byte) bool {
	if _, err := c.s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	if !canonicalPoint(sig[:32]) {
		return false
	}
	if _, err := c.r.SetBytes(sig[:32]); err != nil {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(pub)
	h.Write(msg)
	var digest [sha512.Size]byte
	// SetUniformBytes fails only on an input that is not 64 bytes long.
	_, _ = c.k.SetUniformBytes(h.Sum(digest[:0]))
	return true
}

// holds reports whether [8]([S]B − [k]A − R) = 0 for the decoded key a:
// through the basepoint's and a's comb tables when a has one, through
// one doubling chain otherwise.
func (c *sigCheck) holds(a *verifyKey) bool {
	var p edwards25519.Point
	if a.table != nil {
		var negK edwards25519.Scalar
		negK.Negate(&c.k)
		p.VarTimeCombMult([]edwards25519.Scalar{c.s, negK},
			[]*edwards25519.CombTable{edwards25519.BasepointCombTable(), a.table})
	} else {
		p.Negate(&a.point)
		p.VarTimeDoubleScalarBaseMult(&c.k, &p, &c.s)
	}
	p.Subtract(&p, &c.r)
	return p.MultByCofactor(&p).Equal(edwards25519.NewIdentityPoint()) == 1
}

// canonicalPoint reports whether enc, a 32-byte point encoding, is in
// the form edwards25519's Point.Bytes produces: y below p = 2^255 − 19,
// and no sign bit when x = 0, which happens exactly at y = 1 and
// y = p − 1. Whether enc is on the curve at all is SetBytes's check.
func canonicalPoint(enc []byte) bool {
	// Bytes 1..31 of y (sign bit masked) read like p's and p−1's
	// (0xff…0xff, 0x7f), or like 1's (all zero).
	nearP, nearOne := enc[31]&0x7f == 0x7f, enc[31]&0x7f == 0
	for _, b := range enc[1:31] {
		nearP = nearP && b == 0xff
		nearOne = nearOne && b == 0
	}
	switch {
	case nearP && enc[0] >= 0xed: // y ≥ p
		return false
	case enc[31]&0x80 == 0:
		return true
	default: // sign bit set: refuse it on x = 0
		return !(nearP && enc[0] == 0xec) && !(nearOne && enc[0] == 1)
	}
}
