package crypto

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func testSeed(b byte) []byte {
	seed := make([]byte, SeedSize)
	for i := range seed {
		seed[i] = b
	}
	return seed
}

func mustKey(t *testing.T, b byte) (PublicKey, PrivateKey) {
	t.Helper()
	pub, priv, err := KeyFromSeed(testSeed(b))
	if err != nil {
		t.Fatalf("KeyFromSeed() error = %v", err)
	}
	return pub, priv
}

func TestSignVerifyRoundTrip(t *testing.T) {
	pub, priv := mustKey(t, 1)
	msg := []byte("a signed protocol message")
	sig := priv.Sign(msg)
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatalf("Verify() error = %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	pub, priv := mustKey(t, 1)
	sig := priv.Sign([]byte("original"))
	err := pub.Verify([]byte("tampered"), sig)
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify() error = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	_, priv := mustKey(t, 1)
	other, _ := mustKey(t, 2)
	msg := []byte("message")
	err := other.Verify(msg, priv.Sign(msg))
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify() error = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	pub, priv := mustKey(t, 1)
	tests := []struct {
		name string
		pub  PublicKey
		sig  []byte
	}{
		{"short signature", pub, []byte{1, 2, 3}},
		{"empty signature", pub, nil},
		{"zero public key", PublicKey{}, priv.Sign([]byte("m"))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.pub.Verify([]byte("m"), tt.sig); !errors.Is(err, ErrBadInput) {
				t.Fatalf("Verify() error = %v, want ErrBadInput", err)
			}
		})
	}
}

func TestKeyFromSeedDeterministic(t *testing.T) {
	pub1, _ := mustKey(t, 7)
	pub2, _ := mustKey(t, 7)
	if !pub1.Equal(pub2) {
		t.Fatal("same seed produced different keys")
	}
}

func TestKeyFromSeedRejectsBadLength(t *testing.T) {
	_, _, err := KeyFromSeed([]byte{1, 2, 3})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("KeyFromSeed() error = %v, want ErrBadInput", err)
	}
}

func TestGenerateKeyDistinct(t *testing.T) {
	pub1, _, err := GenerateKey(nil)
	if err != nil {
		t.Fatalf("GenerateKey() error = %v", err)
	}
	pub2, _, err := GenerateKey(nil)
	if err != nil {
		t.Fatalf("GenerateKey() error = %v", err)
	}
	if pub1.Equal(pub2) {
		t.Fatal("two generated keys are equal")
	}
}

func TestKeyByteRoundTrip(t *testing.T) {
	pub, priv := mustKey(t, 3)
	pub2, err := PublicKeyFromBytes(pub.Bytes())
	if err != nil {
		t.Fatalf("PublicKeyFromBytes() error = %v", err)
	}
	if !pub.Equal(pub2) {
		t.Fatal("public key round trip mismatch")
	}
	priv2, err := PrivateKeyFromBytes(priv.Bytes())
	if err != nil {
		t.Fatalf("PrivateKeyFromBytes() error = %v", err)
	}
	msg := []byte("round trip")
	if err := pub.Verify(msg, priv2.Sign(msg)); err != nil {
		t.Fatalf("restored key signature invalid: %v", err)
	}
}

func TestKeyFromBytesRejectsBadLength(t *testing.T) {
	if _, err := PublicKeyFromBytes([]byte{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("PublicKeyFromBytes() error = %v, want ErrBadInput", err)
	}
	if _, err := PrivateKeyFromBytes([]byte{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("PrivateKeyFromBytes() error = %v, want ErrBadInput", err)
	}
}

func TestHashOrdering(t *testing.T) {
	var a, b Hash
	b[HashSize-1] = 1
	if !a.Less(b) {
		t.Fatal("zero hash should sort before nonzero")
	}
	if b.Less(a) {
		t.Fatal("ordering not antisymmetric")
	}
	if a.Less(a) {
		t.Fatal("ordering not irreflexive")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("Compare inconsistent with Less")
	}
}

func TestSumPartsBoundaries(t *testing.T) {
	// ("ab","c") and ("a","bc") must hash differently: the length
	// prefixes disambiguate boundaries.
	h1 := SumParts([]byte("ab"), []byte("c"))
	h2 := SumParts([]byte("a"), []byte("bc"))
	if h1 == h2 {
		t.Fatal("SumParts does not separate part boundaries")
	}
}

func TestHashFromBytes(t *testing.T) {
	h := Sum([]byte("x"))
	h2, err := HashFromBytes(h.Bytes())
	if err != nil {
		t.Fatalf("HashFromBytes() error = %v", err)
	}
	if h != h2 {
		t.Fatal("hash byte round trip mismatch")
	}
	if _, err := HashFromBytes([]byte{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("HashFromBytes() error = %v, want ErrBadInput", err)
	}
}

func TestQuickSignVerify(t *testing.T) {
	_, priv := mustKey(t, 11)
	pub := priv.Public()
	f := func(msg []byte) bool {
		return pub.Verify(msg, priv.Sign(msg)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTamperedSignatureFails(t *testing.T) {
	_, priv := mustKey(t, 12)
	pub := priv.Public()
	f := func(msg []byte, flip uint8) bool {
		sig := priv.Sign(msg)
		sig[int(flip)%len(sig)] ^= 0xff
		return pub.Verify(msg, sig) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyTableShared: a key builds its comb table on its first
// verification and every copy of it uses that one table; a key parsed
// again from its bytes is another key and builds its own; and a key
// that is not a curve point builds none and fails every check.
func TestKeyTableShared(t *testing.T) {
	pub, priv := mustKey(t, 9)
	msg := []byte("shared table")
	sig := priv.Sign(msg)
	copied := pub
	if pub.v == nil || copied.v != pub.v {
		t.Fatal("a copied key does not share its original's verification form")
	}
	items, _ := batchFixture(t, 8, 1) // eight copies of one more key
	before := KeyTablesBuilt()
	for _, k := range []PublicKey{pub, copied, pub} {
		if err := k.Verify(msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	for i, err := range NewVerifyCache(32).VerifyBatch(items) {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if got := KeyTablesBuilt() - before; got != 2 || pub.v.table == nil || pub.v.table != copied.v.table {
		t.Fatalf("%d tables built for two keys and their copies", got)
	}
	// Copies verifying at once still build one table between them.
	fresh, freshPriv := mustKey(t, 10)
	freshSig := freshPriv.Sign(msg)
	before = KeyTablesBuilt()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(k PublicKey) {
			defer wg.Done()
			if err := k.Verify(msg, freshSig); err != nil {
				t.Error(err)
			}
		}(fresh)
	}
	wg.Wait()
	if got := KeyTablesBuilt() - before; got != 1 {
		t.Fatalf("%d tables built by concurrent first verifications of one key", got)
	}

	reparsed, err := PublicKeyFromBytes(pub.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	before = KeyTablesBuilt()
	if err := reparsed.Verify(msg, sig); err != nil || KeyTablesBuilt()-before != 1 {
		t.Fatalf("a reparsed key: Verify %v, %d tables built", err, KeyTablesBuilt()-before)
	}

	notPoint := nonPointKey(t)
	before = KeyTablesBuilt()
	bad := make([]BatchItem, 6)
	for i := range bad {
		bad[i] = BatchItem{Pub: notPoint, Msg: []byte{byte(i)}, Sig: sig} // distinct triples: no cache hits
	}
	for n := 0; n < 3; n++ {
		if err := notPoint.Verify(msg, sig); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("Verify under a key that is not a point: %v", err)
		}
		for i, err := range NewVerifyCache(32).VerifyBatch(bad) {
			if !errors.Is(err, ErrBadSignature) {
				t.Fatalf("VerifyBatch item %d under a key that is not a point: %v", i, err)
			}
		}
	}
	if KeyTablesBuilt() != before || notPoint.v.table != nil {
		t.Fatal("a key that is not a point built a table")
	}
}

func BenchmarkSign(b *testing.B) {
	_, priv, err := KeyFromSeed(testSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte("x"), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priv.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	pub, priv, err := KeyFromSeed(testSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte("x"), 256)
	sig := priv.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
