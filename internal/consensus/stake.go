// Package consensus implements the paper's §3.4.3 consensus layer:
// Proof-of-Stake leader election through per-stake-unit VRF
// evaluations, and the 3-step stake-transform protocol with leader
// expulsion.
//
// The package is transport-agnostic: it provides verifiable message
// types and state machines; the node layer moves them over the
// network. The paper's trust model applies — "we may assume that these
// governors will not perform malicious behaviors rather than hiding
// transactions" — but every signature and proof is still verified so
// that deviations are detected and expellable.
package consensus

import (
	"errors"
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadStake reports a stake operation with invalid indices or
	// amounts.
	ErrBadStake = errors.New("consensus: invalid stake operation")
	// ErrInsufficientStake reports a transfer exceeding the sender's
	// balance.
	ErrInsufficientStake = errors.New("consensus: insufficient stake")
	// ErrBadTicket reports a leader-election ticket that fails
	// verification.
	ErrBadTicket = errors.New("consensus: invalid election ticket")
	// ErrIncompleteElection reports a leader query before every
	// governor has submitted tickets.
	ErrIncompleteElection = errors.New("consensus: election incomplete")
	// ErrNoStake reports an election in which no stake units exist.
	ErrNoStake = errors.New("consensus: no stake in play")
	// ErrBadSignature reports a message signature that fails.
	ErrBadSignature = errors.New("consensus: bad signature")
	// ErrStateMismatch reports a NEW_STATE inconsistent with the
	// verifier's own application of the stake transfers.
	ErrStateMismatch = errors.New("consensus: stake state mismatch")
	// ErrDecode reports a malformed encoding.
	ErrDecode = errors.New("consensus: decode failed")
)

// HashState returns the canonical commitment to a stake vector.
func HashState(state []uint64) crypto.Hash {
	e := codec.NewEncoder(8 * (len(state) + 1))
	e.PutString("repchain/stakestate/v1")
	putState(e, state)
	return crypto.Sum(e.Bytes())
}

// StakeTx is a signed stake transfer between governors. Governors
// related to the transfer broadcast it to all governors (§3.4.3).
type StakeTx struct {
	// From is the paying governor's index.
	From int
	// To is the receiving governor's index.
	To int
	// Amount is the number of stake units moved.
	Amount uint64
	// Nonce is the payer's sequence number: each is spent at most once,
	// in increasing order, so a captured transfer cannot be replayed.
	Nonce uint64
	// Sig is From's signature.
	Sig []byte
}

func (t StakeTx) signingBytes() []byte {
	e := codec.Wrap(make([]byte, 0, 64))
	e.PutString("repchain/staketx/v1")
	e.PutInt(t.From)
	e.PutInt(t.To)
	e.PutUint64(t.Amount)
	e.PutUint64(t.Nonce)
	return e.Bytes()
}

// SignStakeTx signs a stake transfer with the paying governor's key.
func SignStakeTx(from, to int, amount, nonce uint64, key crypto.PrivateKey) StakeTx {
	t := StakeTx{From: from, To: to, Amount: amount, Nonce: nonce}
	t.Sig = key.Sign(t.signingBytes())
	return t
}

// Verify checks the transfer's signature against the paying
// governor's public key, through the shared verification cache (all m
// governors verify the same broadcast transfer).
func (t StakeTx) Verify(pub crypto.PublicKey) error {
	if err := crypto.CachedVerify(pub, t.signingBytes(), t.Sig); err != nil {
		return fmt.Errorf("stake tx %d→%d: %w", t.From, t.To, ErrBadSignature)
	}
	return nil
}

// Encode appends the wire encoding of t to e.
func (t StakeTx) Encode(e *codec.Encoder) {
	e.PutInt(t.From)
	e.PutInt(t.To)
	e.PutUint64(t.Amount)
	e.PutUint64(t.Nonce)
	e.PutBytes(t.Sig)
}

// ApplyTransfers applies the given transfers in order to a copy of
// base and returns the resulting NEW_STATE. It fails on the first
// invalid transfer.
func ApplyTransfers(base []uint64, txs []StakeTx) ([]uint64, error) {
	state := make([]uint64, len(base))
	copy(state, base)
	for i, t := range txs {
		if t.From < 0 || t.From >= len(state) || t.To < 0 || t.To >= len(state) || t.From == t.To || t.Amount == 0 {
			return nil, fmt.Errorf("transfer %d (%d→%d): %w", i, t.From, t.To, ErrBadStake)
		}
		if state[t.From] < t.Amount {
			return nil, fmt.Errorf("transfer %d: governor %d has %d, needs %d: %w",
				i, t.From, state[t.From], t.Amount, ErrInsufficientStake)
		}
		state[t.From] -= t.Amount
		state[t.To] += t.Amount
	}
	return state, nil
}
