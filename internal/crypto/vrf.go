package crypto

import "fmt"

// VRF implements the verifiable random function used by the
// proof-of-stake leader election (paper §3.4.3):
//
//	⟨hash, π⟩ ← VRF_g(round, governorIndex, stakeUnit)
//
// Construction. The paper cites the Micali–Rabin–Vadhan VRF; the Go
// standard library has no EC-VRF, so we substitute a
// signature-then-hash construction:
//
//	π      = Ed25519-Sign(sk, domainTag ‖ α)
//	output = SHA-256(π)
//
// Go's Ed25519 signing is deterministic (RFC 8032), so each (key,
// input) pair yields exactly one proof and one output; proofs are
// publicly verifiable against the signer's public key; and outputs are
// unpredictable without the secret key because they are hashes of an
// unforgeable signature. Ed25519 is not a strictly *unique* signature
// scheme: the verification rule (verify.go, crypto/ed25519's) refuses
// a nonce point shifted by a small-order point, but a key holder with a
// modified signer can still grind nonces — any r yields a valid proof —
// and so choose among outputs for an input; only the key holder can.
// The paper's threat model (§3.4.3) assumes governors "will not perform
// malicious behaviors rather than hiding transactions", under which
// determinism suffices. DESIGN.md records this substitution.
const vrfDomainTag = "repchain/vrf/v1\x00"

// VRFOutput bundles a VRF evaluation: the pseudorandom output and the
// proof that it was computed correctly.
type VRFOutput struct {
	// Output is the pseudorandom hash compared across stake units.
	Output Hash
	// Proof authenticates Output against the evaluator's public key.
	Proof []byte
}

// VRFProofMessage returns the exact byte string a VRF proof signs for
// input alpha: the domain tag followed by alpha.
func VRFProofMessage(alpha []byte) []byte {
	msg := make([]byte, 0, len(vrfDomainTag)+len(alpha))
	msg = append(msg, vrfDomainTag...)
	msg = append(msg, alpha...)
	return msg
}

// VRFEval evaluates the VRF at input alpha.
func VRFEval(priv PrivateKey, alpha []byte) VRFOutput {
	proof := priv.Sign(VRFProofMessage(alpha))
	return VRFOutput{Output: Sum(proof), Proof: proof}
}

// VRFVerify checks that out was produced by the holder of pub at input
// alpha. It returns ErrBadProof if the proof does not verify or the
// output does not match the proof. The underlying signature check runs
// through CachedVerify: every governor verifies every other governor's
// tickets, so each proof is re-checked m−1 times per round with
// identical inputs.
func VRFVerify(pub PublicKey, alpha []byte, out VRFOutput) error {
	if err := CachedVerify(pub, VRFProofMessage(alpha), out.Proof); err != nil {
		return fmt.Errorf("vrf proof: %w", ErrBadProof)
	}
	if Sum(out.Proof) != out.Output {
		return fmt.Errorf("vrf output does not match proof: %w", ErrBadProof)
	}
	return nil
}

// VRFAlpha builds the canonical leader-election input for a stake unit:
// the round number, the governor index, and the unit index, exactly the
// triple (r, j, u) of §3.4.3, bound to the previous block hash so that
// outputs cannot be precomputed before the chain reaches the round.
func VRFAlpha(prevHash Hash, round uint64, governorIndex, stakeUnit int) []byte {
	buf := make([]byte, 0, HashSize+3*10)
	buf = append(buf, prevHash[:]...)
	buf = appendUint64(buf, round)
	buf = appendUint64(buf, uint64(governorIndex))
	buf = appendUint64(buf, uint64(stakeUnit))
	return buf
}

func appendUint64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*(7-i))))
	}
	return b
}
