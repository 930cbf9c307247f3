package consensus

import (
	"errors"
	"testing"

	"repchain/internal/crypto"
)

type transformFixture struct {
	pubs  []crypto.PublicKey
	privs []crypto.PrivateKey
	base  []uint64
}

func newTransformFixture(t *testing.T, m int) *transformFixture {
	t.Helper()
	fx := &transformFixture{base: make([]uint64, m)}
	for j := 0; j < m; j++ {
		pub, priv := testKey(t, byte(100+j))
		fx.pubs = append(fx.pubs, pub)
		fx.privs = append(fx.privs, priv)
		fx.base[j] = 10
	}
	return fx
}

func (fx *transformFixture) propose(t *testing.T, leader int, txs []StakeTx) StateProposal {
	t.Helper()
	p, err := ProposeState(1, leader, fx.base, txs, fx.privs[leader])
	if err != nil {
		t.Fatalf("ProposeState() error = %v", err)
	}
	return p
}

func TestProposeAndVerify(t *testing.T) {
	fx := newTransformFixture(t, 4)
	txs := []StakeTx{SignStakeTx(1, 2, 5, 0, fx.privs[1])}
	p := fx.propose(t, 0, txs)
	if p.NewState[1] != 5 || p.NewState[2] != 15 {
		t.Fatalf("NewState = %v", p.NewState)
	}
	if err := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, nil); err != nil {
		t.Fatalf("VerifyProposal() error = %v", err)
	}
}

func TestVerifyProposalRejectsForgedState(t *testing.T) {
	fx := newTransformFixture(t, 3)
	p := fx.propose(t, 0, nil)
	// Leader lies about the state after signing — signature breaks.
	p.NewState[1] = 999
	if err := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("error = %v, want ErrBadSignature", err)
	}
}

func TestVerifyProposalRejectsSignedLie(t *testing.T) {
	// The leader signs a NEW_STATE inconsistent with the transfers —
	// the replay check must catch it even though the signature is
	// fine.
	fx := newTransformFixture(t, 3)
	lie := []uint64{100, 10, 10}
	p := StateProposal{Round: 1, Leader: 0, NewState: lie, Txs: nil}
	p.Sig = fx.privs[0].Sign(stateSigningBytes(1, 0, lie, nil))
	if err := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, nil); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("error = %v, want ErrStateMismatch", err)
	}
}

func TestVerifyProposalRejectsUnsignedTransfer(t *testing.T) {
	fx := newTransformFixture(t, 3)
	// Transfer "signed" by the wrong governor: leader 0 forges a
	// transfer from governor 1.
	forged := SignStakeTx(1, 0, 5, 0, fx.privs[0]) // signed by 0, claims From=1
	p := fx.propose(t, 0, []StakeTx{forged})
	if err := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("error = %v, want ErrBadSignature", err)
	}
}

func TestVerifyProposalRejectsSpentNonce(t *testing.T) {
	fx := newTransformFixture(t, 3)
	p := fx.propose(t, 0, []StakeTx{SignStakeTx(1, 2, 1, 4, fx.privs[1])})
	if err := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, []uint64{0, 4, 0}); err != nil {
		t.Fatalf("fresh nonce: VerifyProposal() error = %v", err)
	}
	if err := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, []uint64{0, 5, 0}); !errors.Is(err, ErrBadStake) {
		t.Fatalf("spent nonce: error = %v, want ErrBadStake", err)
	}
	twice := SignStakeTx(1, 2, 1, 4, fx.privs[1])
	p = fx.propose(t, 0, []StakeTx{twice, twice})
	if err := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, nil); !errors.Is(err, ErrBadStake) {
		t.Fatalf("nonce spent twice in one proposal: error = %v, want ErrBadStake", err)
	}
}

func TestEndorseAndAssemble(t *testing.T) {
	fx := newTransformFixture(t, 3)
	p := fx.propose(t, 1, []StakeTx{SignStakeTx(0, 2, 1, 0, fx.privs[0])})
	var ens []Endorsement
	for j := range fx.pubs {
		ens = append(ens, Endorse(p, j, fx.privs[j]))
	}
	blk, err := AssembleStakeBlock(p, ens, fx.pubs)
	if err != nil {
		t.Fatalf("AssembleStakeBlock() error = %v", err)
	}
	if err := VerifyStakeBlock(blk, fx.pubs); err != nil {
		t.Fatalf("VerifyStakeBlock() error = %v", err)
	}
}

func TestAssembleRequiresAllEndorsements(t *testing.T) {
	fx := newTransformFixture(t, 3)
	p := fx.propose(t, 0, nil)
	ens := []Endorsement{
		Endorse(p, 0, fx.privs[0]),
		Endorse(p, 1, fx.privs[1]),
		// governor 2 missing
	}
	if _, err := AssembleStakeBlock(p, ens, fx.pubs); !errors.Is(err, ErrIncompleteElection) {
		t.Fatalf("error = %v, want ErrIncompleteElection", err)
	}
}

func TestAssembleRejectsBadEndorsement(t *testing.T) {
	fx := newTransformFixture(t, 2)
	p := fx.propose(t, 0, nil)
	good := Endorse(p, 0, fx.privs[0])
	// Governor 1 endorses a different state.
	other := p
	other.NewState = []uint64{1, 19}
	bad := Endorse(other, 1, fx.privs[1])
	if _, err := AssembleStakeBlock(p, []Endorsement{good, bad}, fx.pubs); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("error = %v, want ErrStateMismatch", err)
	}
	// Round mismatch.
	wrongRound := Endorsement{Round: 9, Governor: 1, StateHash: HashState(p.NewState)}
	wrongRound.Sig = fx.privs[1].Sign(endorsementSigningBytes(9, 1, wrongRound.StateHash))
	if _, err := AssembleStakeBlock(p, []Endorsement{good, wrongRound}, fx.pubs); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("round mismatch error = %v, want ErrStateMismatch", err)
	}
	// Out-of-range governor.
	oob := good
	oob.Governor = 7
	if _, err := AssembleStakeBlock(p, []Endorsement{good, oob}, fx.pubs); !errors.Is(err, ErrBadStake) {
		t.Fatalf("out-of-range error = %v, want ErrBadStake", err)
	}
}

func TestVerifyStakeBlockRejectsTampering(t *testing.T) {
	fx := newTransformFixture(t, 2)
	p := fx.propose(t, 0, nil)
	ens := []Endorsement{Endorse(p, 0, fx.privs[0]), Endorse(p, 1, fx.privs[1])}
	blk, err := AssembleStakeBlock(p, ens, fx.pubs)
	if err != nil {
		t.Fatal(err)
	}
	blk.NewState[0] = 12345
	if err := VerifyStakeBlock(blk, fx.pubs); err == nil {
		t.Fatal("tampered stake block verified")
	}
}

func TestEvidenceFlow(t *testing.T) {
	fx := newTransformFixture(t, 3)
	// Leader signs an inconsistent state; follower 1 accuses.
	lie := []uint64{100, 10, 10}
	p := StateProposal{Round: 1, Leader: 0, NewState: lie}
	p.Sig = fx.privs[0].Sign(stateSigningBytes(1, 0, lie, nil))

	verifyErr := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, nil)
	if verifyErr == nil {
		t.Fatal("bad proposal verified")
	}
	ev := AccuseLeader(1, p, verifyErr, fx.privs[1])
	// Governor 2 validates the accusation against its own base state.
	if err := VerifyEvidence(ev, fx.pubs[1], fx.pubs[0], fx.pubs, fx.base, nil); err != nil {
		t.Fatalf("VerifyEvidence() error = %v", err)
	}
}

func TestEvidenceRejectsUnfoundedAccusation(t *testing.T) {
	fx := newTransformFixture(t, 3)
	p := fx.propose(t, 0, nil) // perfectly valid proposal
	ev := AccuseLeader(1, p, errors.New("made up"), fx.privs[1])
	if err := VerifyEvidence(ev, fx.pubs[1], fx.pubs[0], fx.pubs, fx.base, nil); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("unfounded accusation error = %v, want ErrStateMismatch", err)
	}
}

func TestEvidenceRejectsForgedAccuser(t *testing.T) {
	fx := newTransformFixture(t, 3)
	lie := []uint64{100, 10, 10}
	p := StateProposal{Round: 1, Leader: 0, NewState: lie}
	p.Sig = fx.privs[0].Sign(stateSigningBytes(1, 0, lie, nil))
	ev := AccuseLeader(1, p, errors.New("bad state"), fx.privs[2]) // signed with wrong key
	if err := VerifyEvidence(ev, fx.pubs[1], fx.pubs[0], fx.pubs, fx.base, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged accuser error = %v, want ErrBadSignature", err)
	}
}

// An accuser cannot frame a leader with a proposal the leader never
// signed: one that fails VerifyProposal only for its signature is no
// evidence.
func TestEvidenceRejectsUnsignedProposal(t *testing.T) {
	fx := newTransformFixture(t, 3)
	p := fx.propose(t, 0, nil)
	p.Sig = nil
	verifyErr := VerifyProposal(p, fx.pubs[0], fx.pubs, fx.base, nil)
	ev := AccuseLeader(1, p, verifyErr, fx.privs[1])
	if err := VerifyEvidence(ev, fx.pubs[1], fx.pubs[0], fx.pubs, fx.base, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("unsigned proposal as evidence: error = %v, want ErrBadSignature", err)
	}
}

func TestProposeStateRejectsInvalidTransfers(t *testing.T) {
	fx := newTransformFixture(t, 2)
	over := SignStakeTx(0, 1, 1000, 0, fx.privs[0])
	if _, err := ProposeState(1, 0, fx.base, []StakeTx{over}, fx.privs[0]); !errors.Is(err, ErrInsufficientStake) {
		t.Fatalf("error = %v, want ErrInsufficientStake", err)
	}
}
