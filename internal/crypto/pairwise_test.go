package crypto

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

func seededKey(t *testing.T, b byte) (PublicKey, PrivateKey) {
	t.Helper()
	seed := bytes.Repeat([]byte{b}, SeedSize)
	pub, priv, err := KeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

// TestX25519MatchesIdentityKey pins the Edwards→Montgomery map: the
// X25519 public key derived from an Ed25519 public key alone must be
// the one crypto/ecdh computes from the derived private scalar.
func TestX25519MatchesIdentityKey(t *testing.T) {
	for b := byte(1); b <= 32; b++ {
		pub, priv := seededKey(t, b)
		sk, err := priv.x25519()
		if err != nil {
			t.Fatal(err)
		}
		pk, err := pub.x25519()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pk.Bytes(), sk.PublicKey().Bytes()) {
			t.Fatalf("seed %#x: mapped public key %x, ecdh public key %x", b, pk.Bytes(), sk.PublicKey().Bytes())
		}
	}
}

func TestSharedSecretSymmetricAndPairwise(t *testing.T) {
	pubA, privA := seededKey(t, 1)
	pubB, privB := seededKey(t, 2)
	pubC, _ := seededKey(t, 3)
	ab, err := privA.SharedSecret(pubB)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := privB.SharedSecret(pubA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, ba) {
		t.Fatal("A's secret with B differs from B's secret with A")
	}
	ac, err := privA.SharedSecret(pubC)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ab, ac) {
		t.Fatal("two pairs share a secret")
	}
}

func TestSharedSecretRejectsBadKeys(t *testing.T) {
	_, priv := seededKey(t, 1)
	// y = 1 (the identity) has no Montgomery image; y = −1 maps to the
	// low-order point u = 0, which X25519 refuses.
	identity := make([]byte, PublicKeySize)
	identity[0] = 1
	minusOne := curveP.Bytes() // big-endian p
	slices.Reverse(minusOne)
	minusOne[0]-- // little-endian p − 1
	for name, raw := range map[string][]byte{"identity": identity, "low order": minusOne} {
		pub, err := PublicKeyFromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := priv.SharedSecret(pub); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s point: error = %v, want ErrBadInput", name, err)
		}
	}
	if _, err := (PrivateKey{}).SharedSecret(PublicKey{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero keys: error = %v, want ErrBadInput", err)
	}
}

func TestDeriveKeySeparates(t *testing.T) {
	secret := bytes.Repeat([]byte{7}, 32)
	base := DeriveKey(secret, "d", "a", "b")
	if len(base) != HashSize {
		t.Fatalf("key length %d", len(base))
	}
	if !bytes.Equal(base, DeriveKey(secret, "d", "a", "b")) {
		t.Fatal("derivation is not deterministic")
	}
	for name, other := range map[string][]byte{
		"direction": DeriveKey(secret, "d", "b", "a"),
		"domain":    DeriveKey(secret, "e", "a", "b"),
		"boundary":  DeriveKey(secret, "d", "ab", ""),
		"secret":    DeriveKey(bytes.Repeat([]byte{8}, 32), "d", "a", "b"),
	} {
		if bytes.Equal(base, other) {
			t.Fatalf("changing the %s left the key unchanged", name)
		}
	}
}
