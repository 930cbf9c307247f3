package node

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"slices"

	"repchain/internal/consensus"
	"repchain/internal/events"
	"repchain/internal/network"
)

// The stake transform of §3.4.3 as round steps, on each governor's own
// stakes, next nonces, expelled set and filed transfers. A transform that
// does not complete leaves its transfers filed for the next leader.

// transferOrder sorts filed transfers by (payer, nonce).
func transferOrder(a, b consensus.StakeTx) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Nonce, b.Nonce))
}

// Stakes returns the committed stake vector with expelled governors at
// zero: the stakes the next election runs on.
func (r *GovernorRound) Stakes() []uint64 {
	out := slices.Clone(r.stakes)
	for j, ev := range r.expelled {
		if ev != nil {
			out[j] = 0
		}
	}
	return out
}

// StakeBlock returns the last stake block applied, nil before the first.
func (r *GovernorRound) StakeBlock() *consensus.StakeBlock { return r.applied }

// Expulsion returns the evidence that made this governor expel j, or nil.
func (r *GovernorRound) Expulsion(j int) *consensus.Evidence { return r.expelled[j] }

// CorruptNextStakeProposal makes this governor's next proposal mint
// stake, exercising expulsion. Testing hook; not part of the protocol.
func (r *GovernorRound) CorruptNextStakeProposal() { r.corrupt = true }

// TransferStake is the payer's step: sign a transfer of amount units to
// governor `to` with its next unused nonce, file it, and multicast it to
// every governor (itself included). More than its stake less its filed
// transfers is refused with a wrapped consensus.ErrInsufficientStake.
func (r *GovernorRound) TransferStake(to int, amount uint64, out Sender) error {
	me := r.gov.Index()
	nonce := r.nextNonce[me]
	if i, _ := slices.BinarySearchFunc(r.transfers, consensus.StakeTx{From: me + 1}, transferOrder); i > 0 && r.transfers[i-1].From == me {
		nonce = r.transfers[i-1].Nonce + 1
	}
	t := consensus.SignStakeTx(me, to, amount, nonce, r.gov.cfg.Member.PrivateKey)
	b := consensus.EncodeStakeTx(t)
	if r.fileTransfer(b) != "" {
		return fmt.Errorf("%s transfer of %d to governor %d: %w", r.gov.ID(), amount, to, consensus.ErrBadStake)
	}
	if _, filed := slices.BinarySearchFunc(r.transfers, t, transferOrder); !filed {
		return fmt.Errorf("%s transfer of %d: %w", r.gov.ID(), amount, consensus.ErrInsufficientStake)
	}
	return out.Multicast(r.gov.ID(), r.governorIDs, network.KindStakeTx, b)
}

// fileTransfer files a broadcast transfer under (payer, nonce) and
// returns why not, "" when it did. The payer's signature authenticates
// it, whoever relayed it; a copy of a filed transfer is a no-op. Filed,
// it is settled at once: one the payer cannot fund is dropped there.
func (r *GovernorRound) fileTransfer(b []byte) string {
	t, err := consensus.DecodeStakeTx(b)
	switch {
	case err != nil:
		return "decode"
	case t.From < 0 || t.From >= len(r.pubs):
		return "unknown_payer"
	case t.To < 0 || t.To >= len(r.pubs) || t.To == t.From || t.Amount == 0:
		return "invalid"
	case t.Nonce < r.nextNonce[t.From]:
		return "stale_nonce"
	}
	i, found := slices.BinarySearchFunc(r.transfers, t, transferOrder)
	switch {
	case found && r.transfers[i].To == t.To && r.transfers[i].Amount == t.Amount && bytes.Equal(r.transfers[i].Sig, t.Sig):
		return ""
	case found:
		return "duplicate"
	case t.Verify(r.pubs[t.From]) != nil:
		return "bad_sig"
	}
	r.transfers = slices.Insert(r.transfers, i, t)
	r.settle(nil)
	return ""
}

// fileStake files one stake-transform message, counting it under
// node.stake_ignored_total{reason} when it is of no use.
func (r *GovernorRound) fileStake(m network.Message) {
	var reason string
	switch m.Kind {
	case network.KindStakeTx:
		reason = r.fileTransfer(m.Payload)
	case network.KindStakeState:
		// Only the round leader's signature files a proposal, whoever sent it.
		p, err := consensus.DecodeProposal(m.Payload)
		switch reason = r.roundReason(err, p.Round, p.Leader); {
		case reason != "":
		case consensus.VerifyProposalSig(p, r.pubs[p.Leader]) != nil:
			reason = "bad_sig"
		case r.proposal != nil:
			reason = "duplicate"
		default:
			r.proposal = &p
		}
	case network.KindStakeSig:
		en, err := consensus.DecodeEndorsement(m.Payload)
		switch reason = r.roundReason(err, en.Round, r.gov.Index()); {
		case reason != "":
		case r.proposal == nil:
			reason = "not_leader"
		case en.Governor < 0 || en.Governor >= len(r.pubs) ||
			consensus.VerifyEndorsement(en, r.pubs[en.Governor], consensus.HashState(r.proposal.NewState)) != nil:
			reason = "bad_sig"
		case r.endorsements[en.Governor].Sig != nil:
			reason = "duplicate"
		default:
			r.endorsements[en.Governor] = en
		}
	case network.KindStakeBlock:
		// One that missed its round is applied in the next, before Screen.
		sb, err := consensus.DecodeStakeBlock(m.Payload)
		switch {
		case err != nil:
			reason = "decode"
		case sb.Round+1 == r.round:
			reason = r.applyStakeBlock(sb, sb.Round, r.prevLeader)
		default:
			reason = r.applyStakeBlock(sb, r.round, r.leader)
		}
	case network.KindEvidence:
		// About a proposal of a round since the stakes last settled, late or
		// resent, verified against them, it expels the leader that signed it.
		ev, err := consensus.DecodeEvidence(m.Payload)
		leader := ev.Proposal.Leader
		switch {
		case err != nil:
			reason = "decode"
		case ev.Proposal.Round <= r.settled || ev.Proposal.Round > r.round:
			reason = "stale_round"
		case min(leader, ev.Accuser) < 0 || max(leader, ev.Accuser) >= len(r.pubs):
			reason = "bad_sig"
		case r.expelled[leader] != nil:
			reason = "duplicate"
		default:
			err := consensus.VerifyEvidence(ev, r.pubs[ev.Accuser], r.pubs[leader], r.pubs, r.stakes, r.nextNonce)
			if errors.Is(err, consensus.ErrBadSignature) {
				reason = "bad_sig"
			} else if err != nil {
				reason = "unfounded"
			} else {
				r.expelled[leader] = &ev
				r.gov.events.Emit(events.TypeLeaderExpelled, "", r.round, string(r.gov.ID()),
					slog.String("leader", string(r.governorIDs[leader])),
					slog.String("accuser", string(r.governorIDs[ev.Accuser])), slog.String("reason", ev.Reason))
			}
		}
	}
	r.ignore(reason)
}

func (r *GovernorRound) ignore(reason string) {
	if reason != "" {
		r.reg.CounterVec("node.stake_ignored_total", "reason").With(reason).Inc()
	}
}

// roundReason is why a message about round's proposal by leader is of
// no use: it did not decode, or concerns another round or leader.
func (r *GovernorRound) roundReason(err error, round uint64, leader int) string {
	switch {
	case err != nil:
		return "decode"
	case round != r.round:
		return "stale_round"
	case r.leader < 0 || leader != r.leader:
		return "not_leader"
	}
	return ""
}

// StakeStep, called after Adopt with Ingest in between, takes the stake
// transform's next steps — lead: propose; answer the filed proposal;
// lead: assemble once every endorsement is filed — and reports whether
// this governor is done for the round (a round with nothing filed is,
// at once, sending nothing).
func (r *GovernorRound) StakeStep(out Sender) (bool, error) {
	if r.leader < 0 || r.expelled[r.leader] != nil || r.applied != nil && r.applied.Round == r.round {
		return true, nil
	}
	me, key, id := r.gov.Index(), r.gov.cfg.Member.PrivateKey, r.gov.ID()
	if me == r.leader && !r.proposed && len(r.transfers) > 0 {
		p, err := consensus.ProposeState(r.round, me, r.stakes, r.transfers, key)
		if err != nil {
			return false, err
		}
		if r.corrupt {
			r.corrupt = false
			p.NewState[0] += 1000
			p = consensus.ResignProposal(p, key)
		}
		r.proposed = true
		if err := out.Multicast(id, r.governorIDs, network.KindStakeState, consensus.EncodeProposal(p)); err != nil {
			return false, err
		}
	}
	if p := r.proposal; p != nil && !r.answered {
		r.answered = true
		err := consensus.VerifyProposal(*p, r.pubs[r.leader], r.pubs, r.stakes, r.nextNonce)
		if err != nil {
			err = out.Multicast(id, r.governorIDs, network.KindEvidence, consensus.EncodeEvidence(consensus.AccuseLeader(me, *p, err, key)))
		} else {
			r.endorsed = p
			err = out.Multicast(id, r.governorIDs[r.leader:r.leader+1], network.KindStakeSig, consensus.EncodeEndorsement(consensus.Endorse(*p, me, key)))
		}
		if err != nil {
			return false, err
		}
	}
	if r.proposed && !r.assembled && !slices.ContainsFunc(r.endorsements, func(en consensus.Endorsement) bool { return en.Sig == nil }) {
		sb, err := consensus.AssembleStakeBlock(*r.proposal, r.endorsements, r.pubs)
		if err != nil {
			return false, err
		}
		r.assembled = true
		if err := out.Multicast(id, r.governorIDs, network.KindStakeBlock, consensus.EncodeStakeBlock(sb)); err != nil {
			return false, err
		}
	}
	// Waiting on a proposal it made or answered, or for one to come.
	return !r.proposed && !r.answered && len(r.transfers) == 0, nil
}

// applyStakeBlock applies sb, if it is round's block by leader over the
// state this governor endorsed, and returns why not otherwise: the
// stakes become NEW_STATE, and each payer's next nonce moves past the
// highest the endorsed proposal spent.
func (r *GovernorRound) applyStakeBlock(sb consensus.StakeBlock, round uint64, leader int) string {
	switch {
	case sb.Round != round:
		return "stale_round"
	case r.applied != nil && r.applied.Round == round:
		return "duplicate"
	case sb.Leader != leader:
		return "not_leader"
	case r.endorsed == nil || r.endorsed.Round != round || !slices.Equal(r.endorsed.NewState, sb.NewState) ||
		consensus.VerifyStakeBlock(sb, r.pubs) != nil:
		return "bad_sig"
	}
	r.stakes = slices.Clone(sb.NewState)
	for _, t := range r.endorsed.Txs {
		r.nextNonce[t.From] = max(r.nextNonce[t.From], t.Nonce+1)
	}
	committed := r.endorsed.Txs
	r.endorsed, r.applied, r.settled = nil, &sb, round
	r.settle(committed)
	return ""
}

// settle drops the filed transfers the stakes have no use for — silently
// those in committed; counted, any below its payer's next nonce or
// beyond what the payer can still fund, in (payer, nonce) order — so
// every transfer left on file can be proposed.
func (r *GovernorRound) settle(committed []consensus.StakeTx) {
	left := slices.Clone(r.stakes)
	r.transfers = slices.DeleteFunc(r.transfers, func(t consensus.StakeTx) bool {
		reason := ""
		switch {
		case slices.ContainsFunc(committed, func(c consensus.StakeTx) bool { return transferOrder(c, t) == 0 }):
			return true
		case t.Nonce < r.nextNonce[t.From]:
			reason = "stale_nonce"
		case t.Amount > left[t.From]:
			reason = "insufficient"
		default:
			left[t.From] -= t.Amount
			return false
		}
		r.ignore(reason)
		return true
	})
}
