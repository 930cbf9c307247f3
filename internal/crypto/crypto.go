// Package crypto provides the cryptographic substrate of the protocol:
// SHA-256 hashing, Ed25519 signing keys, a verifiable random function
// built from deterministic Ed25519 signatures, and a Merkle tree over
// transaction lists.
//
// The paper assumes a standard PKI with digital signatures on every
// interaction, a public collision-resistant hash function H for chain
// integrity, and a VRF [Micali–Rabin–Vadhan] for stake-unit leader
// election. This package supplies all three from the Go standard
// library alone: crypto/ed25519 generates keys and signs, and
// verification runs on a copy of Go's own edwards25519 arithmetic
// (internal/edwards25519), which the standard library does not export.
package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"repchain/internal/crypto/internal/edwards25519"
)

// HashSize is the byte length of protocol hashes (SHA-256).
const HashSize = sha256.Size

// Hash is a protocol hash value.
type Hash [HashSize]byte

// ZeroHash is the hash stored in the genesis block's previous-hash
// field.
var ZeroHash Hash

// Sum hashes data with the protocol hash function.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// SumParts hashes the concatenation of parts, each prefixed with its
// length so that boundaries are unambiguous.
func SumParts(parts ...[]byte) Hash {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// String returns the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the first 8 hex characters, for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Bytes returns a copy of the hash contents.
func (h Hash) Bytes() []byte {
	out := make([]byte, HashSize)
	copy(out, h[:])
	return out
}

// HashFromBytes converts a byte slice into a Hash, rejecting wrong
// lengths.
func HashFromBytes(b []byte) (Hash, error) {
	var h Hash
	if len(b) != HashSize {
		return h, fmt.Errorf("hash length %d, want %d: %w", len(b), HashSize, ErrBadInput)
	}
	copy(h[:], b)
	return h, nil
}

// Less reports whether h sorts before other when both are interpreted
// as big-endian unsigned integers. Leader election picks the smallest
// VRF output with this ordering.
func (h Hash) Less(other Hash) bool {
	for i := 0; i < HashSize; i++ {
		if h[i] != other[i] {
			return h[i] < other[i]
		}
	}
	return false
}

// Compare returns -1, 0, or +1 ordering h against other.
func (h Hash) Compare(other Hash) int {
	for i := 0; i < HashSize; i++ {
		if h[i] != other[i] {
			if h[i] < other[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Sentinel errors for the package. Callers match with errors.Is.
var (
	// ErrBadInput reports structurally invalid key, signature, or hash
	// material.
	ErrBadInput = errors.New("crypto: bad input")
	// ErrBadSignature reports a signature that does not verify.
	ErrBadSignature = errors.New("crypto: signature verification failed")
	// ErrBadProof reports a VRF proof that does not verify.
	ErrBadProof = errors.New("crypto: vrf proof verification failed")
)

// Key sizes, re-exported so callers need not import crypto/ed25519.
const (
	PublicKeySize  = ed25519.PublicKeySize
	PrivateKeySize = ed25519.PrivateKeySize
	SignatureSize  = ed25519.SignatureSize
	SeedSize       = ed25519.SeedSize
)

// PublicKey identifies a node and verifies its signatures.
type PublicKey struct {
	k ed25519.PublicKey
}

// PrivateKey signs on behalf of a node.
type PrivateKey struct {
	k ed25519.PrivateKey
}

// GenerateKey creates a fresh keypair. If rng is nil the cryptographic
// source crypto/rand.Reader is used. Tests pass a deterministic reader.
func GenerateKey(rng io.Reader) (PublicKey, PrivateKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return PublicKey{}, PrivateKey{}, fmt.Errorf("generate ed25519 key: %w", err)
	}
	return PublicKey{k: pub}, PrivateKey{k: priv}, nil
}

// KeyFromSeed derives a keypair deterministically from a 32-byte seed.
// Simulation harnesses use it to create reproducible node identities.
func KeyFromSeed(seed []byte) (PublicKey, PrivateKey, error) {
	if len(seed) != SeedSize {
		return PublicKey{}, PrivateKey{}, fmt.Errorf("seed length %d, want %d: %w", len(seed), SeedSize, ErrBadInput)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		return PublicKey{}, PrivateKey{}, fmt.Errorf("unexpected public key type: %w", ErrBadInput)
	}
	return PublicKey{k: pub}, PrivateKey{k: priv}, nil
}

// Public returns the verifying key for priv.
func (priv PrivateKey) Public() PublicKey {
	pub, ok := priv.k.Public().(ed25519.PublicKey)
	if !ok {
		return PublicKey{}
	}
	return PublicKey{k: pub}
}

// Sign produces a deterministic Ed25519 signature over msg.
func (priv PrivateKey) Sign(msg []byte) []byte {
	return ed25519.Sign(priv.k, msg)
}

// IsZero reports whether the key is uninitialized.
func (priv PrivateKey) IsZero() bool { return len(priv.k) == 0 }

// Verify checks sig over msg by the tree's one verification rule
// (verify.go). It returns ErrBadSignature when the signature is invalid
// and ErrBadInput when the material is malformed.
func (pub PublicKey) Verify(msg, sig []byte) error {
	if len(pub.k) != PublicKeySize {
		return fmt.Errorf("public key length %d: %w", len(pub.k), ErrBadInput)
	}
	if len(sig) != SignatureSize {
		return fmt.Errorf("signature length %d: %w", len(sig), ErrBadInput)
	}
	var a edwards25519.Point
	var c sigCheck
	if _, err := a.SetBytes(pub.k); err != nil || !c.parse(pub.k, msg, sig) || !c.holds(&a) {
		return ErrBadSignature
	}
	return nil
}

// Equal reports whether two public keys are the same key, in constant
// time.
func (pub PublicKey) Equal(other PublicKey) bool {
	if len(pub.k) != len(other.k) {
		return false
	}
	return subtle.ConstantTimeCompare(pub.k, other.k) == 1
}

// IsZero reports whether the key is uninitialized.
func (pub PublicKey) IsZero() bool { return len(pub.k) == 0 }

// Bytes returns a copy of the raw public key.
func (pub PublicKey) Bytes() []byte {
	out := make([]byte, len(pub.k))
	copy(out, pub.k)
	return out
}

// String returns the public key as lowercase hex.
func (pub PublicKey) String() string { return hex.EncodeToString(pub.k) }

// PublicKeyFromBytes parses a raw 32-byte Ed25519 public key.
func PublicKeyFromBytes(b []byte) (PublicKey, error) {
	if len(b) != PublicKeySize {
		return PublicKey{}, fmt.Errorf("public key length %d, want %d: %w", len(b), PublicKeySize, ErrBadInput)
	}
	k := make(ed25519.PublicKey, PublicKeySize)
	copy(k, b)
	return PublicKey{k: k}, nil
}

// PrivateKeyFromBytes parses a raw 64-byte Ed25519 private key.
func PrivateKeyFromBytes(b []byte) (PrivateKey, error) {
	if len(b) != PrivateKeySize {
		return PrivateKey{}, fmt.Errorf("private key length %d, want %d: %w", len(b), PrivateKeySize, ErrBadInput)
	}
	k := make(ed25519.PrivateKey, PrivateKeySize)
	copy(k, b)
	return PrivateKey{k: k}, nil
}

// Bytes returns a copy of the raw private key.
func (priv PrivateKey) Bytes() []byte {
	out := make([]byte, len(priv.k))
	copy(out, priv.k)
	return out
}
