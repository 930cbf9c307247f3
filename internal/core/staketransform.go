package core

import (
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/network"
)

// runStakeTransform executes the 3-step stake-transform protocol of
// §3.4.3 for the round's pending transfers, with the given leader.
// When the leader provably misbehaves (stakeCorruptor hook), followers
// broadcast evidence, the engine verifies it, expels the leader, and
// the sub-protocol restarts under a re-elected leader.
func (e *Engine) runStakeTransform(leader int) (*consensus.StakeBlock, error) {
	const maxExpulsions = 3
	for attempt := 0; ; attempt++ {
		sb, expelledLeader, err := e.stakeTransformOnce(leader)
		if err != nil {
			return nil, err
		}
		if !expelledLeader {
			return sb, nil
		}
		if attempt+1 >= maxExpulsions {
			return nil, fmt.Errorf("stake transform failed after %d expulsions: %w", attempt+1, ErrExpelled)
		}
		// Re-elect among the remaining governors.
		leader, err = e.electLeader()
		if err != nil {
			return nil, err
		}
	}
}

// stakeTransformOnce runs one attempt. It returns expelled=true when
// the leader was caught and removed; the caller re-elects and retries.
func (e *Engine) stakeTransformOnce(leader int) (*consensus.StakeBlock, bool, error) {
	base := e.stake.Snapshot()
	leaderID := e.governorIDs[leader]
	leaderKey := e.roster.Governors[leader].PrivateKey

	// Step 1: leader proposes NEW_STATE.
	proposal, err := consensus.ProposeState(e.round, leader, base, e.pendingStakeTxs, leaderKey)
	if err != nil {
		return nil, false, err
	}
	if e.stakeCorruptor != nil {
		corrupt := e.stakeCorruptor
		e.stakeCorruptor = nil
		proposal = corrupt(proposal, leaderKey)
	}
	if err := e.bus.Multicast(leaderID, e.governorIDs, network.KindStakeState, encodeProposal(proposal)); err != nil {
		return nil, false, err
	}
	e.bus.AdvancePastDelay()

	// Step 2: followers verify and endorse, or accuse.
	var endorsements []consensus.Endorsement
	accused := false
	rest, err := e.stepGovernors(nil)
	if err != nil {
		return nil, false, err
	}
	for j := range e.governors {
		for _, m := range rest[j] {
			if m.Kind != network.KindStakeState {
				continue
			}
			p, err := decodeProposal(m.Payload)
			if err != nil {
				return nil, false, fmt.Errorf("governor %d proposal decode: %w", j, err)
			}
			if verr := consensus.VerifyProposal(p, e.govPubs[leader], e.govPubs, base); verr != nil {
				// Broadcast evidence to expel the leader.
				ev := consensus.AccuseLeader(j, p, verr, e.roster.Governors[j].PrivateKey)
				if err := e.bus.Multicast(e.governorIDs[j], e.governorIDs, network.KindEvidence, encodeEvidence(ev)); err != nil {
					return nil, false, err
				}
				accused = true
				continue
			}
			en := consensus.Endorse(p, j, e.roster.Governors[j].PrivateKey)
			if err := e.bus.Send(e.governorIDs[j], leaderID, network.KindStakeSig, encodeEndorsement(en)); err != nil {
				return nil, false, err
			}
		}
	}
	e.bus.AdvancePastDelay()

	// The leader (or any governor) drains evidence and endorsements.
	rest, err = e.stepGovernors(nil)
	if err != nil {
		return nil, false, err
	}
	for j := range e.governors {
		for _, m := range rest[j] {
			switch m.Kind {
			case network.KindStakeSig:
				if j != leader {
					continue
				}
				en, err := decodeEndorsement(m.Payload)
				if err != nil {
					return nil, false, fmt.Errorf("leader endorsement decode: %w", err)
				}
				endorsements = append(endorsements, en)
			case network.KindEvidence:
				ev, err := decodeEvidence(m.Payload)
				if err != nil {
					return nil, false, fmt.Errorf("governor %d evidence decode: %w", j, err)
				}
				if verr := consensus.VerifyEvidence(ev, e.govPubs[ev.Accuser], e.govPubs[leader], e.govPubs, base); verr == nil {
					accused = true
				}
			}
		}
	}
	if accused {
		e.expelled[leader] = true
		return nil, true, nil
	}

	// Step 3: leader assembles the stake block with every signature.
	sb, err := consensus.AssembleStakeBlock(proposal, endorsements, e.govPubs)
	if err != nil {
		return nil, false, err
	}
	if err := e.bus.Multicast(leaderID, e.governorIDs, network.KindStakeBlock, encodeStakeBlock(sb)); err != nil {
		return nil, false, err
	}
	e.bus.AdvancePastDelay()
	rest, err = e.stepGovernors(nil)
	if err != nil {
		return nil, false, err
	}
	for j := range e.governors {
		for _, m := range rest[j] {
			if m.Kind != network.KindStakeBlock {
				continue
			}
			got, err := decodeStakeBlock(m.Payload)
			if err != nil {
				return nil, false, fmt.Errorf("governor %d stake block decode: %w", j, err)
			}
			if err := consensus.VerifyStakeBlock(got, e.govPubs); err != nil {
				return nil, false, err
			}
		}
	}
	if err := e.stake.Apply(sb.NewState); err != nil {
		return nil, false, err
	}
	return &sb, false, nil
}

// proposalCorruptor lets a test make the would-be leader mutate and
// re-sign its proposal — modelling a Byzantine leader for the
// expulsion path.
type proposalCorruptor func(consensus.StateProposal, crypto.PrivateKey) consensus.StateProposal

// CorruptNextStakeProposal installs a hook that makes the next stake
// proposal lie about NEW_STATE, exercising leader expulsion. Testing
// hook; not part of the protocol.
func (e *Engine) CorruptNextStakeProposal() {
	e.stakeCorruptor = func(p consensus.StateProposal, key crypto.PrivateKey) consensus.StateProposal {
		if len(p.NewState) > 0 {
			p.NewState[0] += 1000 // mint stake out of thin air
		}
		return consensus.ResignProposal(p, key)
	}
}

// --- wire encodings for the governor-to-governor messages ---

func encodeStakeTx(t consensus.StakeTx) []byte {
	enc := codec.NewEncoder(64)
	t.Encode(enc)
	out := make([]byte, enc.Len())
	copy(out, enc.Bytes())
	return out
}

func encodeProposal(p consensus.StateProposal) []byte {
	e := codec.NewEncoder(128)
	e.PutUint64(p.Round)
	e.PutInt(p.Leader)
	e.PutInt(len(p.NewState))
	for _, s := range p.NewState {
		e.PutUint64(s)
	}
	e.PutInt(len(p.Txs))
	for _, t := range p.Txs {
		t.Encode(e)
	}
	e.PutBytes(p.Sig)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeProposal(b []byte) (consensus.StateProposal, error) {
	d := codec.NewDecoder(b)
	var p consensus.StateProposal
	var err error
	if p.Round, err = d.Uint64(); err != nil {
		return p, err
	}
	if p.Leader, err = d.Int(); err != nil {
		return p, err
	}
	n, err := d.Int()
	if err != nil || n < 0 || n > 1<<20 {
		return p, fmt.Errorf("proposal state length %d: %w", n, ErrBadConfig)
	}
	p.NewState = make([]uint64, n)
	for i := range p.NewState {
		if p.NewState[i], err = d.Uint64(); err != nil {
			return p, err
		}
	}
	nt, err := d.Int()
	if err != nil || nt < 0 || nt > 1<<20 {
		return p, fmt.Errorf("proposal tx count %d: %w", nt, ErrBadConfig)
	}
	p.Txs = make([]consensus.StakeTx, 0, nt)
	for i := 0; i < nt; i++ {
		t, err := consensus.DecodeStakeTx(d)
		if err != nil {
			return p, err
		}
		p.Txs = append(p.Txs, t)
	}
	if p.Sig, err = d.Bytes(); err != nil {
		return p, err
	}
	return p, nil
}

func encodeEndorsement(en consensus.Endorsement) []byte {
	e := codec.NewEncoder(128)
	e.PutUint64(en.Round)
	e.PutInt(en.Governor)
	e.PutRaw(en.StateHash[:])
	e.PutBytes(en.Sig)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeEndorsement(b []byte) (consensus.Endorsement, error) {
	d := codec.NewDecoder(b)
	var en consensus.Endorsement
	var err error
	if en.Round, err = d.Uint64(); err != nil {
		return en, err
	}
	if en.Governor, err = d.Int(); err != nil {
		return en, err
	}
	raw, err := d.Raw(32)
	if err != nil {
		return en, err
	}
	copy(en.StateHash[:], raw)
	if en.Sig, err = d.Bytes(); err != nil {
		return en, err
	}
	return en, nil
}

func encodeStakeBlock(sb consensus.StakeBlock) []byte {
	e := codec.NewEncoder(256)
	e.PutUint64(sb.Round)
	e.PutInt(sb.Leader)
	e.PutInt(len(sb.NewState))
	for _, s := range sb.NewState {
		e.PutUint64(s)
	}
	e.PutInt(len(sb.Endorsements))
	for _, en := range sb.Endorsements {
		e.PutUint64(en.Round)
		e.PutInt(en.Governor)
		e.PutRaw(en.StateHash[:])
		e.PutBytes(en.Sig)
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeStakeBlock(b []byte) (consensus.StakeBlock, error) {
	d := codec.NewDecoder(b)
	var sb consensus.StakeBlock
	var err error
	if sb.Round, err = d.Uint64(); err != nil {
		return sb, err
	}
	if sb.Leader, err = d.Int(); err != nil {
		return sb, err
	}
	n, err := d.Int()
	if err != nil || n < 0 || n > 1<<20 {
		return sb, fmt.Errorf("stake block state length %d: %w", n, ErrBadConfig)
	}
	sb.NewState = make([]uint64, n)
	for i := range sb.NewState {
		if sb.NewState[i], err = d.Uint64(); err != nil {
			return sb, err
		}
	}
	ne, err := d.Int()
	if err != nil || ne < 0 || ne > 1<<20 {
		return sb, fmt.Errorf("stake block endorsement count %d: %w", ne, ErrBadConfig)
	}
	for i := 0; i < ne; i++ {
		var en consensus.Endorsement
		if en.Round, err = d.Uint64(); err != nil {
			return sb, err
		}
		if en.Governor, err = d.Int(); err != nil {
			return sb, err
		}
		raw, err := d.Raw(32)
		if err != nil {
			return sb, err
		}
		copy(en.StateHash[:], raw)
		if en.Sig, err = d.Bytes(); err != nil {
			return sb, err
		}
		sb.Endorsements = append(sb.Endorsements, en)
	}
	return sb, nil
}

func encodeEvidence(ev consensus.Evidence) []byte {
	e := codec.NewEncoder(256)
	e.PutInt(ev.Accuser)
	e.PutBytes(encodeProposal(ev.Proposal))
	e.PutString(ev.Reason)
	e.PutBytes(ev.Sig)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeEvidence(b []byte) (consensus.Evidence, error) {
	d := codec.NewDecoder(b)
	var ev consensus.Evidence
	var err error
	if ev.Accuser, err = d.Int(); err != nil {
		return ev, err
	}
	praw, err := d.Bytes()
	if err != nil {
		return ev, err
	}
	if ev.Proposal, err = decodeProposal(praw); err != nil {
		return ev, err
	}
	if ev.Reason, err = d.String(); err != nil {
		return ev, err
	}
	if ev.Sig, err = d.Bytes(); err != nil {
		return ev, err
	}
	return ev, nil
}
