package crypto

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"fmt"

	"repchain/internal/crypto/internal/edwards25519/field"
)

// Pairwise symmetric keys from the identity keys members already hold.
//
// Ed25519 and X25519 live on birationally equivalent curves, so two
// members who know each other's Ed25519 public key (the deployment's
// roster) can agree on a shared secret with no handshake: each side
// converts its own signing key to an X25519 scalar and the peer's
// public key to a Montgomery u-coordinate, and both arrive at the same
// X25519 output. The transport derives its per-peer frame MAC keys
// this way, once per peer (DESIGN.md §4h).

// x25519 returns the X25519 private key that shares priv's scalar: the
// clamped low half of SHA-512(seed), exactly the scalar Ed25519 signs
// with (RFC 8032 §5.1.5; X25519 applies the same clamp).
func (priv PrivateKey) x25519() (*ecdh.PrivateKey, error) {
	if len(priv.k) != PrivateKeySize {
		return nil, fmt.Errorf("private key length %d: %w", len(priv.k), ErrBadInput)
	}
	h := sha512.Sum512(priv.k.Seed())
	return ecdh.X25519().NewPrivateKey(h[:32])
}

// x25519 maps the Edwards point pub encodes to its Montgomery
// u-coordinate, u = (1+y)/(1−y) mod p (RFC 7748 §4.1). The sign bit of
// x is dropped: u does not depend on it.
func (pub PublicKey) x25519() (*ecdh.PublicKey, error) {
	if len(pub.k) != PublicKeySize {
		return nil, fmt.Errorf("public key length %d: %w", len(pub.k), ErrBadInput)
	}
	var y, one, num, den field.Element
	// SetBytes ignores the sign bit, and fails only on a length that is
	// not 32 bytes.
	_, _ = y.SetBytes(pub.k)
	one.One()
	if y.Equal(&one) == 1 {
		// y = 1 is the Edwards identity; it has no Montgomery image.
		return nil, fmt.Errorf("public key has no X25519 form: %w", ErrBadInput)
	}
	num.Add(&one, &y)
	den.Subtract(&one, &y)
	return ecdh.X25519().NewPublicKey(num.Multiply(&num, den.Invert(&den)).Bytes())
}

// SharedSecret runs static X25519 between priv and peer's identity
// key. Both ends compute the same 32 bytes; nobody without one of the
// two private keys can. The raw output is key material, not a key:
// pass it through DeriveKey.
func (priv PrivateKey) SharedSecret(peer PublicKey) ([]byte, error) {
	sk, err := priv.x25519()
	if err != nil {
		return nil, err
	}
	pk, err := peer.x25519()
	if err != nil {
		return nil, err
	}
	// ECDH fails on low-order peer points (all-zero output).
	secret, err := sk.ECDH(pk)
	if err != nil {
		return nil, fmt.Errorf("x25519: %v: %w", err, ErrBadInput)
	}
	return secret, nil
}

// DeriveKey turns key-agreement output into one 32-byte key bound to a
// purpose: HKDF-SHA256 (RFC 5869) with domain as the salt and the
// length-prefixed info parts as the context, one output block. Distinct
// domains or info give independent keys from the same secret.
func DeriveKey(secret []byte, domain string, info ...string) []byte {
	extract := hmac.New(sha256.New, []byte(domain))
	extract.Write(secret)
	expand := hmac.New(sha256.New, extract.Sum(nil))
	for _, p := range info {
		expand.Write(binary.AppendUvarint(nil, uint64(len(p))))
		expand.Write([]byte(p))
	}
	expand.Write([]byte{1})
	return expand.Sum(nil)
}
