package tx

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/identity"
)

func testKey(t testing.TB, b byte) (crypto.PublicKey, crypto.PrivateKey) {
	t.Helper()
	seed := make([]byte, crypto.SeedSize)
	seed[0] = b
	pub, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func sampleTx(seq uint64) Transaction {
	return Transaction{
		Provider:  identity.MakeNodeID(identity.RoleProvider, 0),
		Seq:       seq,
		Timestamp: 1234567890,
		Kind:      "test/sample",
		Payload:   []byte("payload bytes"),
	}
}

func TestLabelValid(t *testing.T) {
	tests := []struct {
		label Label
		want  bool
	}{
		{LabelValid, true},
		{LabelInvalid, true},
		{Label(0), false},
		{Label(2), false},
		{Label(-2), false},
	}
	for _, tt := range tests {
		if got := tt.label.Valid(); got != tt.want {
			t.Errorf("Label(%d).Valid() = %v, want %v", tt.label, got, tt.want)
		}
	}
}

func TestLabelStrings(t *testing.T) {
	if LabelValid.String() != "+1" || LabelInvalid.String() != "-1" {
		t.Fatal("label strings do not match the paper's notation")
	}
	if Label(5).String() != "label(5)" {
		t.Fatalf("unexpected: %s", Label(5))
	}
}

func TestLabelOppositeAndMatches(t *testing.T) {
	if LabelValid.Opposite() != LabelInvalid || LabelInvalid.Opposite() != LabelValid {
		t.Fatal("Opposite() wrong")
	}
	if !LabelValid.Matches(StatusValid) || LabelValid.Matches(StatusInvalid) {
		t.Fatal("Matches() wrong for +1")
	}
	if !LabelInvalid.Matches(StatusInvalid) || LabelInvalid.Matches(StatusValid) {
		t.Fatal("Matches() wrong for -1")
	}
}

func TestStatusString(t *testing.T) {
	if StatusValid.String() != "valid" || StatusInvalid.String() != "invalid" {
		t.Fatal("status strings wrong")
	}
	if StatusFor(true) != StatusValid || StatusFor(false) != StatusInvalid {
		t.Fatal("StatusFor wrong")
	}
}

func TestTransactionIDStable(t *testing.T) {
	a, b := sampleTx(1), sampleTx(1)
	if a.ID() != b.ID() {
		t.Fatal("equal transactions have different IDs")
	}
	c := sampleTx(2)
	if a.ID() == c.ID() {
		t.Fatal("different transactions share an ID")
	}
}

func TestTransactionIDBindsAllFields(t *testing.T) {
	base := sampleTx(1)
	mutants := []Transaction{
		{Provider: "provider/9", Seq: base.Seq, Timestamp: base.Timestamp, Kind: base.Kind, Payload: base.Payload},
		{Provider: base.Provider, Seq: 9, Timestamp: base.Timestamp, Kind: base.Kind, Payload: base.Payload},
		{Provider: base.Provider, Seq: base.Seq, Timestamp: 9, Kind: base.Kind, Payload: base.Payload},
		{Provider: base.Provider, Seq: base.Seq, Timestamp: base.Timestamp, Kind: "other", Payload: base.Payload},
		{Provider: base.Provider, Seq: base.Seq, Timestamp: base.Timestamp, Kind: base.Kind, Payload: []byte("x")},
	}
	for i, m := range mutants {
		if m.ID() == base.ID() {
			t.Fatalf("mutant %d did not change the transaction ID", i)
		}
	}
}

func TestSignVerifyProvider(t *testing.T) {
	pub, priv := testKey(t, 1)
	s := Sign(sampleTx(1), priv)
	if err := s.VerifyProvider(pub); err != nil {
		t.Fatalf("VerifyProvider() error = %v", err)
	}
}

func TestVerifyProviderRejectsForgery(t *testing.T) {
	pub, priv := testKey(t, 1)
	s := Sign(sampleTx(1), priv)

	// A collector tampering with the payload (the forgery scenario of
	// §4.2) must be detected.
	s.Tx.Payload = []byte("forged")
	if err := s.VerifyProvider(pub); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("VerifyProvider(tampered) error = %v, want ErrBadSignature", err)
	}
}

func TestVerifyProviderRejectsReplayUnderOtherIdentity(t *testing.T) {
	pub, priv := testKey(t, 1)
	s := Sign(sampleTx(1), priv)
	s.Tx.Provider = "provider/42" // replay under a different provider
	if err := s.VerifyProvider(pub); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("VerifyProvider(replayed) error = %v, want ErrBadSignature", err)
	}
}

func TestSignedTxRoundTrip(t *testing.T) {
	_, priv := testKey(t, 1)
	s := Sign(sampleTx(7), priv)
	got, err := DecodeSignedTxBytes(s.EncodeBytes())
	if err != nil {
		t.Fatalf("DecodeSignedTxBytes() error = %v", err)
	}
	if got.Tx.Provider != s.Tx.Provider || got.Tx.Seq != s.Tx.Seq ||
		got.Tx.Timestamp != s.Tx.Timestamp || got.Tx.Kind != s.Tx.Kind ||
		!bytes.Equal(got.Tx.Payload, s.Tx.Payload) || !got.Batch.equal(s.Batch) || got.Index != s.Index {
		t.Fatal("round trip mismatch")
	}
	if got.ID() != s.ID() {
		t.Fatal("round trip changed the ID")
	}
}

func TestDecodeSignedTxRejectsBadTag(t *testing.T) {
	e := codec.NewEncoder(0)
	e.PutString("wrong/tag")
	_, err := DecodeSignedTxBytes(e.Bytes())
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("error = %v, want ErrDecode", err)
	}
}

func TestDecodeSignedTxRejectsTrailing(t *testing.T) {
	_, priv := testKey(t, 1)
	s := Sign(sampleTx(1), priv)
	b := append(s.EncodeBytes(), 0xAA)
	if _, err := DecodeSignedTxBytes(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestSignLabelVerifyCollector(t *testing.T) {
	_, providerKey := testKey(t, 1)
	collPub, collKey := testKey(t, 2)
	collID := identity.MakeNodeID(identity.RoleCollector, 0)

	s := Sign(sampleTx(1), providerKey)
	lt, err := SignLabel(s, LabelValid, collID, collKey)
	if err != nil {
		t.Fatalf("SignLabel() error = %v", err)
	}
	if err := verifyLabel(lt, collPub); err != nil {
		t.Fatalf("collector signature: %v", err)
	}
}

// verifyLabel checks lt's collector signature over its signing bytes.
func verifyLabel(lt LabeledTx, pub crypto.PublicKey) error {
	e := codec.Wrap(nil)
	lt.EncodeSigning(&e)
	return pub.Verify(e.Bytes(), lt.Sig)
}

func TestSignLabelRejectsBadLabel(t *testing.T) {
	_, providerKey := testKey(t, 1)
	_, collKey := testKey(t, 2)
	s := Sign(sampleTx(1), providerKey)
	if _, err := SignLabel(s, Label(0), "collector/0", collKey); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("SignLabel() error = %v, want ErrBadLabel", err)
	}
}

func TestVerifyCollectorRejectsLabelFlip(t *testing.T) {
	_, providerKey := testKey(t, 1)
	collPub, collKey := testKey(t, 2)
	s := Sign(sampleTx(1), providerKey)
	lt, err := SignLabel(s, LabelValid, "collector/0", collKey)
	if err != nil {
		t.Fatal(err)
	}
	// An equivocating relay flips the label after signing: reject.
	lt.Label = LabelInvalid
	if err := verifyLabel(lt, collPub); !errors.Is(err, crypto.ErrBadSignature) {
		t.Fatalf("flipped label: collector signature error = %v, want ErrBadSignature", err)
	}
}

func TestVerifyCollectorRejectsCollectorSwap(t *testing.T) {
	_, providerKey := testKey(t, 1)
	collPub, collKey := testKey(t, 2)
	s := Sign(sampleTx(1), providerKey)
	lt, err := SignLabel(s, LabelValid, "collector/0", collKey)
	if err != nil {
		t.Fatal(err)
	}
	lt.Collector = "collector/9" // claim someone else uploaded it
	if err := verifyLabel(lt, collPub); !errors.Is(err, crypto.ErrBadSignature) {
		t.Fatalf("swapped collector: collector signature error = %v, want ErrBadSignature", err)
	}
}

func TestValidatorFunc(t *testing.T) {
	v := ValidatorFunc(func(t Transaction) bool { return t.Seq%2 == 0 })
	if LabelFor(v, sampleTx(2)) != LabelValid {
		t.Fatal("even seq should label +1")
	}
	if LabelFor(v, sampleTx(3)) != LabelInvalid {
		t.Fatal("odd seq should label -1")
	}
}

func TestQuickSignedRoundTrip(t *testing.T) {
	_, priv := testKey(t, 5)
	f := func(seq uint64, ts int64, kind string, payload []byte) bool {
		s := Sign(Transaction{
			Provider:  "provider/0",
			Seq:       seq,
			Timestamp: ts,
			Kind:      kind,
			Payload:   payload,
		}, priv)
		got, err := DecodeSignedTxBytes(s.EncodeBytes())
		return err == nil && got.ID() == s.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSignTx(b *testing.B) {
	seed := make([]byte, crypto.SeedSize)
	_, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		b.Fatal(err)
	}
	t := sampleTx(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sign(t, priv)
	}
}
