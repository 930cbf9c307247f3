package crypto

import (
	"crypto/ed25519"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
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

// craftSig signs msg as the holder of the scalar a for the key encoding
// pub, with the nonce point encoded as rEnc and its discrete log r
// (r is only meaningful when rEnc encodes [r]B): S = r + k·a with
// k = SHA-512(rEnc ‖ pub ‖ msg). Unlike crypto/ed25519 it lets the key
// and the nonce point carry small-order components, and R be encoded
// non-canonically.
func craftSig(a, r *edwards25519.Scalar, pub, rEnc, msg []byte) []byte {
	h := sha512.New()
	h.Write(rEnc)
	h.Write(pub)
	h.Write(msg)
	k, err := edwards25519.NewScalar().SetUniformBytes(h.Sum(nil))
	if err != nil {
		panic(err)
	}
	s := edwards25519.NewScalar().MultiplyAdd(k, a, r)
	return append(append([]byte(nil), rEnc...), s.Bytes()...)
}

// stdlibVerdict is crypto/ed25519's verdict, the reference the tree's
// rule is compared with.
func stdlibVerdict(pub, msg, sig []byte) bool {
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
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

// TestVerifyMatchesStdlib checks that the tree's rule gives
// crypto/ed25519's verdict, alone and in a batch, on everything but a
// small-order residue: honest signatures over random keys and messages,
// single-byte flips of A, R, S and the message, S ≥ ℓ, and R encoded
// non-canonically (y ≥ p, or the sign bit set on x = 0).
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
	// itself when it is not the identity.
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
		{"R = order-2 point with sign bit (x = 0)", encodeNearP(-1, true)},
		{"R = y = p+18 with sign bit", encodeNearP(18, true)},
	} {
		msg := []byte(r.name)
		cases = append(cases, tc{r.name, pubEnc, msg, craftSig(a, zero, pubEnc, r.enc, msg)})
	}

	items := make([]BatchItem, len(cases))
	for i, c := range cases {
		pub, err := PublicKeyFromBytes(c.pub)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{Pub: pub, Msg: c.msg, Sig: c.sig}
	}
	batch := NewVerifyCache(4 * len(items)).VerifyBatch(items)
	accepted := 0
	for i, c := range cases {
		want := stdlibVerdict(c.pub, c.msg, c.sig)
		if got := items[i].Pub.Verify(c.msg, c.sig) == nil; got != want {
			t.Errorf("%s: Verify accepts=%v, crypto/ed25519 accepts=%v", c.name, got, want)
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
}

// lowOrderResidueSig returns a key and a signature over msg whose
// residue [S]B − [k]A − R is a nonzero point of small order: the key is
// A + T₈ for an order-8 point T₈, signed with A's scalar, so the
// residue is −[k]T₈. It retries messages until k is not a multiple of
// 8, i.e. until crypto/ed25519 rejects.
func lowOrderResidueSig(t testing.TB, label string) (PublicKey, []byte, []byte) {
	t.Helper()
	a, r := testScalar(label+" key"), testScalar(label+" nonce")
	pubPoint := mulBase(a)
	pubPoint.Add(pubPoint, torsion8(t))
	pubEnc := pubPoint.Bytes()
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

// TestLowOrderResidueAccepted pins the one documented difference from
// crypto/ed25519: a signature whose residue is a nonzero small-order
// point is accepted, by Verify and by VerifyBatch alike, where
// crypto/ed25519 rejects it.
func TestLowOrderResidueAccepted(t *testing.T) {
	pub, msg, sig := lowOrderResidueSig(t, "low-order residue")
	if stdlibVerdict(pub.k, msg, sig) {
		t.Fatal("crypto/ed25519 accepts the crafted signature; the residue is zero")
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatalf("Verify: %v, want the cofactored rule to accept", err)
	}

	// An honest key and an order-2 nonce point R with r = 0: the
	// residue is −R.
	a := testScalar("order-2 nonce key")
	pubEnc := mulBase(a).Bytes()
	order2 := encodeNearP(-1, false) // y = p − 1, x = 0
	msg2 := []byte("order-2 nonce")
	sig2 := craftSig(a, edwards25519.NewScalar(), pubEnc, order2, msg2)
	if stdlibVerdict(pubEnc, msg2, sig2) {
		t.Fatal("crypto/ed25519 accepts an order-2 nonce point")
	}
	pub2, err := PublicKeyFromBytes(pubEnc)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub2.Verify(msg2, sig2); err != nil {
		t.Fatalf("Verify with an order-2 nonce point: %v", err)
	}

	items, _ := batchFixture(t, 30, 3)
	items = append(items, BatchItem{Pub: pub, Msg: msg, Sig: sig}, BatchItem{Pub: pub2, Msg: msg2, Sig: sig2})
	for i, err := range NewVerifyCache(64).VerifyBatch(items) {
		if err != nil {
			t.Fatalf("VerifyBatch item %d: %v", i, err)
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
	for y := byte(2); ; y++ { // the first y whose encoding is not a point
		enc := append([]byte{y}, make([]byte, 31)...)
		if _, err := new(edwards25519.Point).SetBytes(enc); err != nil {
			notPoint, err := PublicKeyFromBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, BatchItem{Pub: notPoint, Msg: items[5].Msg, Sig: items[5].Sig})
			break
		}
	}
	items = append(items,
		BatchItem{Pub: items[1].Pub, Msg: items[1].Msg, Sig: items[1].Sig[:40]},
		BatchItem{Pub: PublicKey{}, Msg: items[2].Msg, Sig: items[2].Sig},
	)
	return items
}

// TestVerifyBatchSplitInvariant checks that every signature's verdict is
// PublicKey.Verify's whichever chunk it is checked in: the mixed batch
// split into 1…n contiguous chunks as VerifyBatch splits it, and
// VerifyBatch itself at GOMAXPROCS 1 and 4.
func TestVerifyBatchSplitInvariant(t *testing.T) {
	items := mixedBatch(t)
	want := make([]error, len(items))
	var idx []int // the items with well-formed lengths, which reach verifyChunk
	accepted := 0
	for i, it := range items {
		want[i] = it.Pub.Verify(it.Msg, it.Sig)
		if !errors.Is(want[i], ErrBadInput) {
			idx = append(idx, i)
		}
		if want[i] == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(idx) {
		t.Fatalf("%d of %d accepted: the mix must hold both verdicts", accepted, len(idx))
	}

	for chunks := 1; chunks <= len(idx); chunks++ {
		ok := make([]bool, len(idx))
		for ch := 0; ch < chunks; ch++ {
			lo, hi := ch*len(idx)/chunks, (ch+1)*len(idx)/chunks
			verifyChunk(items, idx[lo:hi], ok[lo:hi])
		}
		for k, i := range idx {
			if ok[k] != (want[i] == nil) {
				t.Fatalf("%d chunks: item %d accepted=%v, Verify says %v", chunks, i, ok[k], want[i])
			}
		}
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i, err := range NewVerifyCache(4 * len(items)).VerifyBatch(items) {
				if (err == nil) != (want[i] == nil) || errors.Is(err, ErrBadInput) != errors.Is(want[i], ErrBadInput) {
					t.Fatalf("item %d: VerifyBatch %v, Verify %v", i, err, want[i])
				}
			}
		})
	}
}

// FuzzVerifyBatch builds a batch of n signatures over a chosen number
// of keys, applies the fuzzer's byte flips to keys, signatures and
// messages, and checks every item's VerifyBatch verdict against
// PublicKey.Verify's.
func FuzzVerifyBatch(f *testing.F) {
	f.Add(uint8(8), uint8(2), []byte{})
	f.Add(uint8(20), uint8(4), []byte{3, 70, 0x40})
	f.Add(uint8(40), uint8(40), []byte{0, 5, 1, 17, 100, 0x80, 39, 127, 0xff})
	f.Add(uint8(64), uint8(1), []byte{63, 95, 0x10, 2, 31, 0x80})
	f.Fuzz(func(t *testing.T, n, keys uint8, mut []byte) {
		size := int(n)%64 + 1
		items, _ := batchFixture(t, size, int(keys)%size+1)
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
		for i, err := range NewVerifyCache(4 * size).VerifyBatch(items) {
			if want := items[i].Pub.Verify(items[i].Msg, items[i].Sig); !errors.Is(err, want) {
				t.Fatalf("item %d: VerifyBatch %v, Verify %v", i, err, want)
			}
		}
	})
}
