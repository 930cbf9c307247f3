package crypto

import (
	"crypto/ed25519"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repchain/internal/crypto/internal/edwards25519"
)

// testScalar derives a scalar from a label.
func testScalar(label string) *edwards25519.Scalar {
	d := sha512.Sum512([]byte(label))
	s, err := edwards25519.NewScalar().SetUniformBytes(d[:])
	if err != nil {
		panic(err)
	}
	return s
}

// mulBase returns [s]B.
func mulBase(s *edwards25519.Scalar) *edwards25519.Point {
	return new(edwards25519.Point).VarTimeDoubleScalarBaseMult(edwards25519.NewScalar(), edwards25519.NewGeneratorPoint(), s)
}

func isIdentity(p *edwards25519.Point) bool {
	return p.Equal(edwards25519.NewIdentityPoint()) == 1
}

// torsion8 returns a point of order exactly 8: [ℓ]P for a curve point P
// lies in the small-order subgroup, and [4]T ≠ 0 rules out orders 1, 2
// and 4.
func torsion8(t testing.TB) *edwards25519.Point {
	t.Helper()
	one, err := edwards25519.NewScalar().SetCanonicalBytes(append([]byte{1}, make([]byte, 31)...))
	if err != nil {
		t.Fatal(err)
	}
	lMinus1 := edwards25519.NewScalar().Subtract(edwards25519.NewScalar(), one)
	for y := 2; y < 256; y++ {
		enc := make([]byte, 32)
		enc[0] = byte(y)
		p, err := new(edwards25519.Point).SetBytes(enc)
		if err != nil {
			continue
		}
		tp := new(edwards25519.Point).VarTimeDoubleScalarBaseMult(lMinus1, p, edwards25519.NewScalar())
		tp.Add(tp, p)
		t4 := new(edwards25519.Point).Add(tp, tp)
		if t4.Add(t4, t4); !isIdentity(t4) {
			return tp
		}
	}
	t.Fatal("no point with an order-8 component among y < 256")
	return nil
}

// challenge returns k = SHA-512(rEnc ‖ pub ‖ msg) mod ℓ.
func challenge(pub, rEnc, msg []byte) *edwards25519.Scalar {
	h := sha512.New()
	h.Write(rEnc)
	h.Write(pub)
	h.Write(msg)
	k, err := edwards25519.NewScalar().SetUniformBytes(h.Sum(nil))
	if err != nil {
		panic(err)
	}
	return k
}

// craftSig signs msg as the holder of the scalar a for the key encoding
// pub, with the nonce point encoded as rEnc and its discrete log r
// (r is only meaningful when rEnc encodes [r]B): S = r + k·a with
// k = challenge(pub, rEnc, msg). Unlike crypto/ed25519 it lets the key
// and the nonce point carry small-order components, and R be encoded
// non-canonically.
func craftSig(a, r *edwards25519.Scalar, pub, rEnc, msg []byte) []byte {
	s := edwards25519.NewScalar().MultiplyAdd(challenge(pub, rEnc, msg), a, r)
	return append(append([]byte(nil), rEnc...), s.Bytes()...)
}

// torsionedKey returns the scalar a and the encoding of the key A + T₈,
// for A = [a]B and an order-8 point T₈. A signature made with a under it
// leaves the residue [S]B − [k]A' − R = −[k]T₈, zero exactly when k is
// a multiple of 8.
func torsionedKey(t testing.TB, label string) (*edwards25519.Scalar, []byte) {
	t.Helper()
	a := testScalar(label + " key")
	pubPoint := mulBase(a)
	return a, pubPoint.Add(pubPoint, torsion8(t)).Bytes()
}

// torsionedKeySigs returns eight signatures by the torsioned key of
// label, one for each value of k mod 8; crypto/ed25519 accepts only the
// one with k ≡ 0. The classes matter one by one: a comb walked with
// −k mod ℓ over A' in place of k over −A' shifts the result by
// [ℓ mod 8]T₈ = [5]T₈, so it accepts k ≡ 5 instead.
func torsionedKeySigs(t testing.TB, label string) (pub []byte, msgs, sigs [][]byte) {
	t.Helper()
	a, pub := torsionedKey(t, label)
	r := testScalar(label + " nonce")
	rEnc := mulBase(r).Bytes()
	msgs, sigs = make([][]byte, 8), make([][]byte, 8)
	for n, found := 0, 0; found < 8; n++ {
		if n == 1000 {
			t.Fatal("no signature for some class of k mod 8 in 1000 messages")
		}
		msg := []byte(fmt.Sprintf("%s %d", label, n))
		if class := challenge(pub, rEnc, msg).Bytes()[0] & 7; msgs[class] == nil {
			msgs[class], sigs[class] = msg, craftSig(a, r, pub, rEnc, msg)
			found++
		}
	}
	return pub, msgs, sigs
}

// stdlibVerdict is crypto/ed25519's verdict, the reference the tree's
// rule is compared with.
func stdlibVerdict(pub, msg, sig []byte) bool {
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// keyForms are the two ways a key verifies: prepared, through comb
// tables built on its first verification, and without a table, through
// the doubling chain a PublicKey literal takes. Every verdict must be
// the same in both.
var keyForms = []struct {
	name string
	of   func(PublicKey) PublicKey
}{
	{"prepared", func(p PublicKey) PublicKey { return p }},
	{"tableless", func(p PublicKey) PublicKey { return PublicKey{k: p.k} }},
}

// withKeys returns a copy of items with each key put in another form.
func withKeys(items []BatchItem, of func(PublicKey) PublicKey) []BatchItem {
	out := slices.Clone(items)
	for i := range out {
		out[i].Pub = of(out[i].Pub)
	}
	return out
}

// matchesStdlib reports whether err is crypto/ed25519's verdict on it:
// ErrBadInput where a length is wrong (crypto/ed25519 panics on a short
// key), else nil exactly when ed25519.Verify accepts.
func matchesStdlib(it BatchItem, err error) bool {
	if len(it.Pub.k) != PublicKeySize || len(it.Sig) != SignatureSize {
		return errors.Is(err, ErrBadInput)
	}
	return (err == nil) == stdlibVerdict(it.Pub.k, it.Msg, it.Sig)
}

// sameVerdict reports whether a and b are the same verdict: both nil,
// both ErrBadSignature, or both structural (ErrBadInput).
func sameVerdict(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, ErrBadInput) == errors.Is(b, ErrBadInput)
}

// curveP is the field prime 2^255 − 19.
var curveP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// encodeNearP returns the 32-byte little-endian encoding of p + delta
// as a point's y, with x's sign bit set when signed.
func encodeNearP(delta int64, signed bool) []byte {
	enc := new(big.Int).Add(curveP, big.NewInt(delta)).FillBytes(make([]byte, 32))
	slices.Reverse(enc)
	if signed {
		enc[31] |= 0x80
	}
	return enc
}

// addOrder returns s + ℓ as 32 little-endian bytes: the same scalar
// mod ℓ, encoded non-canonically (S ≥ ℓ).
func addOrder(s []byte) []byte {
	order := [32]byte{0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14, 31: 0x10}
	out := make([]byte, 32)
	carry := 0
	for i := range out {
		v := int(s[i]) + int(order[i]) + carry
		out[i], carry = byte(v), v>>8
	}
	return out
}

// TestVerifyMatchesStdlib checks that Verify, CachedVerify and
// VerifyBatch give crypto/ed25519's verdict, with prepared keys and with
// keys without a table: on honest signatures over random keys and
// messages, single-byte flips of A, R, S and the message, S ≥ ℓ, R
// encoded non-canonically (y ≥ p, or the sign bit set on x = 0),
// small-order nonce points, and keys with a small-order component, one
// signature for each value of k mod 8 and lowOrderResidueSig's.
func TestVerifyMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type tc struct {
		name          string
		pub, msg, sig []byte
	}
	var cases []tc
	for trial := 0; trial < 48; trial++ {
		seed := make([]byte, SeedSize)
		rng.Read(seed)
		pub, priv, err := KeyFromSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, rng.Intn(200))
		rng.Read(msg)
		sig := priv.Sign(msg)
		flip := func(b []byte, at int) []byte {
			out := append([]byte(nil), b...)
			out[at] ^= byte(1 + rng.Intn(255))
			return out
		}
		name := func(what string) string { return fmt.Sprintf("trial %d %s", trial, what) }
		cases = append(cases,
			tc{name("honest"), pub.k, msg, sig},
			tc{name("flip A"), flip(pub.k, rng.Intn(32)), msg, sig},
			tc{name("flip R"), pub.k, msg, flip(sig, rng.Intn(32))},
			tc{name("flip S"), pub.k, msg, flip(sig, 32+rng.Intn(32))},
			tc{name("S+ℓ"), pub.k, msg, append(append([]byte(nil), sig[:32]...), addOrder(sig[32:])...)},
		)
		if len(msg) > 0 {
			cases = append(cases, tc{name("flip M"), pub.k, flip(msg, rng.Intn(len(msg))), sig})
		}
	}

	// Nonce points that are all small-order, with r = 0: the equation
	// [S]B − [k]A − R = 0 would hold but for R's encoding, or for R
	// itself when it is not the identity: a residue −R of small order.
	a := testScalar("matches-stdlib key")
	pubEnc := mulBase(a).Bytes()
	zero := edwards25519.NewScalar()
	identity := append([]byte{1}, make([]byte, 31)...)
	identitySigned := append([]byte{1}, make([]byte, 31)...)
	identitySigned[31] = 0x80
	for _, r := range []struct {
		name string
		enc  []byte
	}{
		{"R = identity, canonical", identity},
		{"R = identity with sign bit (x = 0)", identitySigned},
		{"R = identity as y = p+1", encodeNearP(1, false)},
		{"R = order-4 point as y = p", encodeNearP(0, false)},
		{"R = order-2 point, canonical", encodeNearP(-1, false)},
		{"R = order-2 point with sign bit (x = 0)", encodeNearP(-1, true)},
		{"R = y = p+18 with sign bit", encodeNearP(18, true)},
	} {
		msg := []byte(r.name)
		cases = append(cases, tc{r.name, pubEnc, msg, craftSig(a, zero, pubEnc, r.enc, msg)})
	}
	torsioned, msgs, sigs := torsionedKeySigs(t, "matches-stdlib torsioned")
	for class := range msgs {
		cases = append(cases, tc{fmt.Sprintf("torsioned key, k ≡ %d mod 8", class), torsioned, msgs[class], sigs[class]})
	}
	for n := 0; n < 3; n++ {
		pub, msg, sig := lowOrderResidueSig(t, fmt.Sprintf("matches-stdlib residue %d", n))
		cases = append(cases, tc{fmt.Sprintf("low-order residue %d", n), pub.k, msg, sig})
	}

	prepared := make([]BatchItem, len(cases))
	for i, c := range cases {
		pub, err := PublicKeyFromBytes(c.pub)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = BatchItem{Pub: pub, Msg: c.msg, Sig: c.sig}
	}
	for _, form := range keyForms {
		t.Run(form.name, func(t *testing.T) {
			items := withKeys(prepared, form.of)
			cached := make([]error, len(items))
			for i, it := range items {
				cached[i] = CachedVerify(it.Pub, it.Msg, it.Sig)
			}
			batch := VerifyBatch(items)
			accepted := 0
			for i, c := range cases {
				want := stdlibVerdict(c.pub, c.msg, c.sig)
				if got := items[i].Pub.Verify(c.msg, c.sig) == nil; got != want {
					t.Errorf("%s: Verify accepts=%v, crypto/ed25519 accepts=%v", c.name, got, want)
				}
				if got := cached[i] == nil; got != want {
					t.Errorf("%s: CachedVerify accepts=%v, crypto/ed25519 accepts=%v", c.name, got, want)
				}
				if got := batch[i] == nil; got != want {
					t.Errorf("%s: VerifyBatch accepts=%v, crypto/ed25519 accepts=%v", c.name, got, want)
				}
				if want {
					accepted++
				}
			}
			if accepted < 48 || accepted == len(cases) {
				t.Fatalf("%d of %d cases accepted: the mix must hold both verdicts", accepted, len(cases))
			}
		})
	}
}

// lowOrderResidueSig returns a key and a signature over msg whose
// residue [S]B − [k]A − R is a nonzero point of small order: the key is
// torsionedKey's, signed with A's scalar, so the residue is −[k]T₈. It
// retries messages until k is not a multiple of 8, i.e. until
// crypto/ed25519 rejects.
func lowOrderResidueSig(t testing.TB, label string) (PublicKey, []byte, []byte) {
	t.Helper()
	a, pubEnc := torsionedKey(t, label)
	r := testScalar(label + " nonce")
	rEnc := mulBase(r).Bytes()
	for n := 0; n < 64; n++ {
		msg := []byte(fmt.Sprintf("%s %d", label, n))
		sig := craftSig(a, r, pubEnc, rEnc, msg)
		if !stdlibVerdict(pubEnc, msg, sig) {
			pub, err := PublicKeyFromBytes(pubEnc)
			if err != nil {
				t.Fatal(err)
			}
			return pub, msg, sig
		}
	}
	t.Fatal("every message gave a residue of zero")
	return PublicKey{}, nil, nil
}

// TestLowOrderResidueRejected checks that a signature whose residue is
// a nonzero small-order point is rejected, as crypto/ed25519 rejects
// it, by Verify, CachedVerify and VerifyBatch alike, with prepared keys
// and keys without a table: a key with an order-8 component, and an
// order-2 nonce point with r = 0.
func TestLowOrderResidueRejected(t *testing.T) {
	for _, form := range keyForms {
		t.Run(form.name, func(t *testing.T) { testLowOrderResidueRejected(t, form.of) })
	}
}

func testLowOrderResidueRejected(t *testing.T, of func(PublicKey) PublicKey) {
	pub, msg, sig := lowOrderResidueSig(t, "low-order residue")

	// An honest key and an order-2 nonce point R with r = 0: the
	// residue is −R.
	a := testScalar("order-2 nonce key")
	pub2, err := PublicKeyFromBytes(mulBase(a).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	msg2 := []byte("order-2 nonce")
	sig2 := craftSig(a, edwards25519.NewScalar(), pub2.k, encodeNearP(-1, false), msg2) // y = p − 1, x = 0

	honest, _ := batchFixture(t, 30, 3)
	residues := []BatchItem{{Pub: pub, Msg: msg, Sig: sig}, {Pub: pub2, Msg: msg2, Sig: sig2}}
	for i, it := range residues {
		if stdlibVerdict(it.Pub.k, it.Msg, it.Sig) {
			t.Fatalf("residue %d: crypto/ed25519 accepts; the residue is zero", i)
		}
		it.Pub = of(it.Pub)
		if err := it.Pub.Verify(it.Msg, it.Sig); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("residue %d: Verify %v, want %v", i, err, ErrBadSignature)
		}
		if err := CachedVerify(it.Pub, it.Msg, it.Sig); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("residue %d: CachedVerify %v, want %v", i, err, ErrBadSignature)
		}
	}
	items := withKeys(append(honest, residues...), of)
	for i, err := range VerifyBatch(items) {
		if want := i < len(honest); (err == nil) != want {
			t.Fatalf("VerifyBatch item %d: %v, want accepted=%v", i, err, want)
		}
	}
}

// mixedBatch returns a batch holding every kind of verdict: valid
// signatures under a few keys, forged ones, low-order residues, and
// structural failures (S ≥ ℓ, non-canonical R, a key that is not a
// point, wrong lengths).
func mixedBatch(t testing.TB) []BatchItem {
	t.Helper()
	items, _ := batchFixture(t, 40, 4)
	corrupt := func(i, at int) {
		items[i].Sig = append([]byte(nil), items[i].Sig...)
		items[i].Sig[at] ^= 0x21
	}
	corrupt(3, 40)                     // S flipped: forged
	corrupt(17, 2)                     // R flipped
	items[9].Msg = []byte("other msg") // signature over a different message
	items[22].Sig = append(append([]byte(nil), items[22].Sig[:32]...), addOrder(items[22].Sig[32:])...)
	items[30].Sig = append([]byte(nil), items[30].Sig...)
	items[30].Sig[31] ^= 0x80 // R's sign bit flipped: its negation
	for n := 0; n < 3; n++ {
		pub, msg, sig := lowOrderResidueSig(t, fmt.Sprintf("mixed %d", n))
		items = append(items, BatchItem{Pub: pub, Msg: msg, Sig: sig})
	}
	// R = identity encoded as y = p+1, r = 0: the equation holds, the
	// encoding does not.
	a := testScalar("mixed non-canonical R")
	pub, err := PublicKeyFromBytes(mulBase(a).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("non-canonical R")
	items = append(items, BatchItem{Pub: pub, Msg: msg, Sig: craftSig(a, edwards25519.NewScalar(), pub.k, encodeNearP(1, false), msg)})
	items = append(items,
		BatchItem{Pub: nonPointKey(t), Msg: items[5].Msg, Sig: items[5].Sig},
		BatchItem{Pub: items[1].Pub, Msg: items[1].Msg, Sig: items[1].Sig[:40]},
		BatchItem{Pub: PublicKey{}, Msg: items[2].Msg, Sig: items[2].Sig},
	)
	return items
}

// nonPointKey returns a key whose encoding is not a curve point: the
// first y < 256 that has no x.
func nonPointKey(t testing.TB) PublicKey {
	t.Helper()
	for y := byte(2); ; y++ {
		enc := append([]byte{y}, make([]byte, 31)...)
		if _, err := new(edwards25519.Point).SetBytes(enc); err != nil {
			pub, err := PublicKeyFromBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			return pub
		}
	}
}

// TestVerifyBatchMatchesVerify checks that one VerifyBatch call over
// the mixed batch returns, item by item, PublicKey.Verify's verdict,
// with prepared keys and with keys without a table, whose verdicts must
// be the same, and that each is crypto/ed25519's. CI runs it at -cpu 1,4.
func TestVerifyBatchMatchesVerify(t *testing.T) {
	mixed := mixedBatch(t)
	want := make([]error, len(mixed))
	wellFormed, accepted := 0, 0
	for i, it := range mixed {
		want[i] = it.Pub.Verify(it.Msg, it.Sig)
		if !matchesStdlib(it, want[i]) {
			t.Fatalf("item %d: Verify %v, crypto/ed25519 gives the other verdict", i, want[i])
		}
		if !errors.Is(want[i], ErrBadInput) {
			wellFormed++
		}
		if want[i] == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == wellFormed {
		t.Fatalf("%d of %d accepted: the mix must hold both verdicts", accepted, wellFormed)
	}

	for _, form := range keyForms {
		items := withKeys(mixed, form.of)
		for i, err := range VerifyBatch(items) {
			if got := items[i].Pub.Verify(items[i].Msg, items[i].Sig); !sameVerdict(got, want[i]) {
				t.Fatalf("%s: item %d: Verify %v, prepared Verify %v", form.name, i, got, want[i])
			}
			if !sameVerdict(err, want[i]) {
				t.Fatalf("%s: item %d: VerifyBatch %v, Verify %v", form.name, i, err, want[i])
			}
		}
	}
}

// FuzzVerifyBatch builds a batch of n signatures over a chosen number
// of keys, applies the fuzzer's byte flips to keys, signatures and
// messages, and checks every item's VerifyBatch verdict against
// PublicKey.Verify's, and both, with prepared keys, against the
// verdicts with keys that have no table and against crypto/ed25519's.
func FuzzVerifyBatch(f *testing.F) {
	f.Add(uint8(8), uint8(2), []byte{})
	f.Add(uint8(20), uint8(4), []byte{3, 70, 0x40})
	f.Add(uint8(40), uint8(40), []byte{0, 5, 1, 17, 100, 0x80, 39, 127, 0xff})
	f.Add(uint8(64), uint8(1), []byte{63, 95, 0x10, 2, 31, 0x80})
	// The keys are made once, so each keeps its table and its verdict
	// memo across inputs: a memoised verdict is the verdict.
	ring, privs := batchFixture(f, 64, 64)
	pubs := make([]PublicKey, len(ring))
	for i, it := range ring {
		pubs[i] = it.Pub
	}
	f.Fuzz(func(t *testing.T, n, keys uint8, mut []byte) {
		size := int(n)%64 + 1
		k := int(keys)%size + 1
		items := signedItems(pubs[:k], privs[:k], size)
		// Each (item, offset, xor) triple flips one byte of the item's
		// key ‖ signature ‖ message.
		for ; len(mut) >= 3; mut = mut[3:] {
			it := &items[int(mut[0])%size]
			pub, sig, msg := it.Pub.Bytes(), append([]byte(nil), it.Sig...), append([]byte(nil), it.Msg...)
			switch off := int(mut[1]) % (PublicKeySize + SignatureSize + len(msg)); {
			case off < PublicKeySize:
				pub[off] ^= mut[2]
			case off < PublicKeySize+SignatureSize:
				sig[off-PublicKeySize] ^= mut[2]
			default:
				msg[off-PublicKeySize-SignatureSize] ^= mut[2]
			}
			p, err := PublicKeyFromBytes(pub)
			if err != nil {
				t.Fatal(err)
			}
			*it = BatchItem{Pub: p, Msg: msg, Sig: sig}
		}
		tableless := withKeys(items, keyForms[1].of)
		slow := VerifyBatch(tableless)
		for i, err := range VerifyBatch(items) {
			want := tableless[i].Pub.Verify(items[i].Msg, items[i].Sig)
			if !matchesStdlib(items[i], want) {
				t.Fatalf("item %d: Verify %v, crypto/ed25519 gives the other verdict", i, want)
			}
			if got := items[i].Pub.Verify(items[i].Msg, items[i].Sig); !sameVerdict(got, want) {
				t.Fatalf("item %d: Verify %v, without a table %v", i, got, want)
			}
			if !sameVerdict(err, want) || !sameVerdict(slow[i], want) {
				t.Fatalf("item %d: VerifyBatch %v, without a table %v, Verify %v", i, err, slow[i], want)
			}
		}
	})
}
