package consensus

import (
	"fmt"
	"slices"

	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// The 3-step stake-transform protocol of §3.4.3:
//
//  1. The leader combines the previous stake state with the round's
//     stake transfers into NEW_STATE and broadcasts
//     (NEW_STATE, sig_leader(NEW_STATE)).
//  2. Each non-leading governor verifies the signature and the
//     consistency of NEW_STATE with the transfers it received. On
//     success it returns its signature to the leader; on failure it
//     broadcasts the evidence to expel the leader.
//  3. The leader packs NEW_STATE with all collected signatures into a
//     stake-transform block and broadcasts it.

// StateProposal is the leader's step-1 message.
type StateProposal struct {
	// Round is the consensus round.
	Round uint64
	// Leader is the proposing governor's index.
	Leader int
	// NewState is the post-transfer stake vector.
	NewState []uint64
	// Txs are the transfers the leader applied, in order.
	Txs []StakeTx
	// Sig is the leader's signature.
	Sig []byte
}

func stateSigningBytes(round uint64, leader int, newState []uint64, txs []StakeTx) []byte {
	e := codec.Wrap(make([]byte, 0, 64+8*len(newState)+64*len(txs)))
	e.PutString("repchain/newstate/v1")
	putProposalBody(&e, round, leader, newState, txs)
	return e.Bytes()
}

// putProposalBody appends what a proposal's signature covers, which is
// also its wire encoding up to the signature.
func putProposalBody(e *codec.Encoder, round uint64, leader int, newState []uint64, txs []StakeTx) {
	e.PutUint64(round)
	e.PutInt(leader)
	putState(e, newState)
	e.PutInt(len(txs))
	for _, t := range txs {
		t.Encode(e)
	}
}

// ProposeState runs step 1: the leader applies the transfers to base
// and signs the resulting NEW_STATE.
func ProposeState(round uint64, leader int, base []uint64, txs []StakeTx, key crypto.PrivateKey) (StateProposal, error) {
	newState, err := ApplyTransfers(base, txs)
	if err != nil {
		return StateProposal{}, fmt.Errorf("round %d propose: %w", round, err)
	}
	return ResignProposal(StateProposal{Round: round, Leader: leader, NewState: newState, Txs: txs}, key), nil
}

// VerifyProposalSig checks the leader's signature over the proposal.
func VerifyProposalSig(p StateProposal, leaderPub crypto.PublicKey) error {
	msg := stateSigningBytes(p.Round, p.Leader, p.NewState, p.Txs)
	if err := crypto.CachedVerify(leaderPub, msg, p.Sig); err != nil {
		return fmt.Errorf("round %d proposal by %d: %w", p.Round, p.Leader, ErrBadSignature)
	}
	return nil
}

// VerifyProposal runs a follower's step-2 checks: the leader's
// signature, that every embedded transfer is signed by its payer and
// spends a fresh nonce (at least the payer's entry in nextNonce, nil
// meaning all zero, and rising within the proposal), and that NEW_STATE
// equals base with the transfers applied. A non-nil error other than a
// bad leader signature is grounds for expulsion evidence.
func VerifyProposal(p StateProposal, leaderPub crypto.PublicKey, governorPubs []crypto.PublicKey, base, nextNonce []uint64) error {
	if err := VerifyProposalSig(p, leaderPub); err != nil {
		return err
	}
	next := make([]uint64, len(governorPubs))
	copy(next, nextNonce)
	for i, t := range p.Txs {
		if t.From < 0 || t.From >= len(governorPubs) {
			return fmt.Errorf("round %d transfer %d payer %d: %w", p.Round, i, t.From, ErrBadStake)
		}
		if t.Nonce < next[t.From] {
			return fmt.Errorf("round %d transfer %d nonce %d, payer %d's next is %d: %w",
				p.Round, i, t.Nonce, t.From, next[t.From], ErrBadStake)
		}
		next[t.From] = t.Nonce + 1
		if err := t.Verify(governorPubs[t.From]); err != nil {
			return fmt.Errorf("round %d transfer %d: %w", p.Round, i, err)
		}
	}
	want, err := ApplyTransfers(base, p.Txs)
	if err != nil {
		return fmt.Errorf("round %d replay: %w", p.Round, err)
	}
	if !slices.Equal(want, p.NewState) {
		return fmt.Errorf("round %d state %v, replay gives %v: %w", p.Round, p.NewState, want, ErrStateMismatch)
	}
	return nil
}

// ResignProposal re-signs an (arbitrarily modified) proposal with the
// given key. It exists so tests and adversarial harnesses can model a
// Byzantine leader that signs a lying NEW_STATE; the honest path never
// needs it.
func ResignProposal(p StateProposal, key crypto.PrivateKey) StateProposal {
	p.Sig = key.Sign(stateSigningBytes(p.Round, p.Leader, p.NewState, p.Txs))
	return p
}

// Endorsement is a follower's step-2 signature over the proposal.
type Endorsement struct {
	// Round is the consensus round.
	Round uint64
	// Governor is the endorsing governor's index.
	Governor int
	// StateHash commits to the endorsed NEW_STATE.
	StateHash crypto.Hash
	// Sig is the governor's signature.
	Sig []byte
}

func endorsementSigningBytes(round uint64, governor int, stateHash crypto.Hash) []byte {
	e := codec.Wrap(make([]byte, 0, 64))
	e.PutString("repchain/endorse/v1")
	e.PutUint64(round)
	e.PutInt(governor)
	e.PutRaw(stateHash[:])
	return e.Bytes()
}

// Endorse produces governor j's signature over the proposal's state.
func Endorse(p StateProposal, governor int, key crypto.PrivateKey) Endorsement {
	h := HashState(p.NewState)
	return Endorsement{
		Round:     p.Round,
		Governor:  governor,
		StateHash: h,
		Sig:       key.Sign(endorsementSigningBytes(p.Round, governor, h)),
	}
}

// VerifyEndorsement checks an endorsement against the endorser's key
// and the expected state hash.
func VerifyEndorsement(en Endorsement, pub crypto.PublicKey, stateHash crypto.Hash) error {
	if en.StateHash != stateHash {
		return fmt.Errorf("round %d governor %d endorsed %s, want %s: %w",
			en.Round, en.Governor, en.StateHash.Short(), stateHash.Short(), ErrStateMismatch)
	}
	msg := endorsementSigningBytes(en.Round, en.Governor, en.StateHash)
	if err := crypto.CachedVerify(pub, msg, en.Sig); err != nil {
		return fmt.Errorf("round %d endorsement by %d: %w", en.Round, en.Governor, ErrBadSignature)
	}
	return nil
}

// StakeBlock is the step-3 artifact: NEW_STATE plus every governor's
// signature.
type StakeBlock struct {
	// Round is the consensus round.
	Round uint64
	// Leader is the assembling governor.
	Leader int
	// NewState is the committed stake vector.
	NewState []uint64
	// Endorsements holds one signature per governor (including the
	// leader's own), indexed arbitrarily.
	Endorsements []Endorsement
}

// AssembleStakeBlock runs the leader's step 3: it requires an
// endorsement from every governor over the proposal's state, failing
// as VerifyStakeBlock does.
func AssembleStakeBlock(p StateProposal, endorsements []Endorsement, governorPubs []crypto.PublicKey) (StakeBlock, error) {
	sb := StakeBlock{Round: p.Round, Leader: p.Leader, NewState: slices.Clone(p.NewState), Endorsements: slices.Clone(endorsements)}
	return sb, VerifyStakeBlock(sb, governorPubs)
}

// VerifyStakeBlock checks a stake block: every governor's endorsement
// of this round over the block's state must verify.
func VerifyStakeBlock(b StakeBlock, governorPubs []crypto.PublicKey) error {
	h := HashState(b.NewState)
	have := make([]bool, len(governorPubs))
	for _, en := range b.Endorsements {
		if en.Governor < 0 || en.Governor >= len(governorPubs) {
			return fmt.Errorf("endorsement by governor %d of %d: %w", en.Governor, len(governorPubs), ErrBadStake)
		}
		if en.Round != b.Round {
			return fmt.Errorf("endorsement round %d in block round %d: %w", en.Round, b.Round, ErrStateMismatch)
		}
		if err := VerifyEndorsement(en, governorPubs[en.Governor], h); err != nil {
			return err
		}
		have[en.Governor] = true
	}
	if j := slices.Index(have, false); j >= 0 {
		return fmt.Errorf("missing endorsement from governor %d: %w", j, ErrIncompleteElection)
	}
	return nil
}

// Evidence is a follower's accusation against a misbehaving leader:
// the failed proposal plus the reason. Receiving governors re-run
// VerifyProposal; if it indeed fails, the leader is expelled and the
// next election runs without it (the expulsion procedure referenced
// from CycLedger [40]).
type Evidence struct {
	// Accuser is the reporting governor.
	Accuser int
	// Proposal is the offending message.
	Proposal StateProposal
	// Reason is the human-readable verification failure.
	Reason string
	// Sig is the accuser's signature over the evidence.
	Sig []byte
}

func evidenceSigningBytes(accuser int, p StateProposal, reason string) []byte {
	e := codec.Wrap(make([]byte, 0, 128))
	e.PutString("repchain/evidence/v1")
	e.PutInt(accuser)
	e.PutUint64(p.Round)
	e.PutInt(p.Leader)
	e.PutBytes(p.Sig)
	e.PutString(reason)
	return e.Bytes()
}

// AccuseLeader builds signed expulsion evidence from a failed
// proposal.
func AccuseLeader(accuser int, p StateProposal, verifyErr error, key crypto.PrivateKey) Evidence {
	reason := ""
	if verifyErr != nil {
		reason = verifyErr.Error()
	}
	ev := Evidence{Accuser: accuser, Proposal: p, Reason: reason}
	ev.Sig = key.Sign(evidenceSigningBytes(accuser, p, reason))
	return ev
}

// VerifyEvidence checks the accusation: the accuser's signature and the
// leader's on the embedded proposal must verify — only a NEW_STATE the
// leader signed proves anything — AND the proposal must fail
// verification otherwise, against the verifier's own base state and
// next nonces. It returns nil when the evidence is valid.
func VerifyEvidence(ev Evidence, accuserPub, leaderPub crypto.PublicKey, governorPubs []crypto.PublicKey, base, nextNonce []uint64) error {
	msg := evidenceSigningBytes(ev.Accuser, ev.Proposal, ev.Reason)
	if err := crypto.CachedVerify(accuserPub, msg, ev.Sig); err != nil {
		return fmt.Errorf("evidence by %d: %w", ev.Accuser, ErrBadSignature)
	}
	if err := VerifyProposalSig(ev.Proposal, leaderPub); err != nil {
		return fmt.Errorf("evidence by %d: %w", ev.Accuser, err)
	}
	if err := VerifyProposal(ev.Proposal, leaderPub, governorPubs, base, nextNonce); err == nil {
		return fmt.Errorf("evidence by %d: proposal verifies, accusation unfounded: %w", ev.Accuser, ErrStateMismatch)
	}
	return nil
}
