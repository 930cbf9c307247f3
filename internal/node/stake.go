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
func (g *Governor) Stakes() []uint64 {
	out := slices.Clone(g.stakes)
	for j, ev := range g.expelled {
		if ev != nil {
			out[j] = 0
		}
	}
	return out
}

// StakeBlock returns the last stake block applied, nil before the first.
func (g *Governor) StakeBlock() *consensus.StakeBlock { return g.applied }

// Expulsion returns the evidence that made this governor expel j, or nil.
func (g *Governor) Expulsion(j int) *consensus.Evidence { return g.expelled[j] }

// CorruptNextStakeProposal makes this governor's next proposal mint
// stake, exercising expulsion. Testing hook; not part of the protocol.
func (g *Governor) CorruptNextStakeProposal() { g.corrupt = true }

// TransferStake is the payer's step: sign a transfer of amount units to
// governor `to` with its next unused nonce, file it, and multicast it to
// every governor (itself included). More than its stake less its filed
// transfers is refused with a wrapped consensus.ErrInsufficientStake.
func (g *Governor) TransferStake(to int, amount uint64, out Sender) error {
	me := g.Index()
	nonce := g.nextNonce[me]
	if i, _ := slices.BinarySearchFunc(g.transfers, consensus.StakeTx{From: me + 1}, transferOrder); i > 0 && g.transfers[i-1].From == me {
		nonce = g.transfers[i-1].Nonce + 1
	}
	t := consensus.SignStakeTx(me, to, amount, nonce, g.cfg.Member.PrivateKey)
	b := consensus.EncodeStakeTx(t)
	if g.fileTransfer(b) != "" {
		return fmt.Errorf("%s transfer of %d to governor %d: %w", g.ID(), amount, to, consensus.ErrBadStake)
	}
	if _, filed := slices.BinarySearchFunc(g.transfers, t, transferOrder); !filed {
		return fmt.Errorf("%s transfer of %d: %w", g.ID(), amount, consensus.ErrInsufficientStake)
	}
	return out.Multicast(g.ID(), g.governorIDs, network.KindStakeTx, b)
}

// fileTransfer files a broadcast transfer under (payer, nonce) and
// returns why not, "" when it did. The payer's signature authenticates
// it, whoever relayed it; a copy of a filed transfer is a no-op. Filed,
// it is settled at once: one the payer cannot fund is dropped there.
func (g *Governor) fileTransfer(b []byte) string {
	t, err := consensus.DecodeStakeTx(b)
	switch {
	case err != nil:
		return "decode"
	case t.From < 0 || t.From >= len(g.pubs):
		return "unknown_payer"
	case t.To < 0 || t.To >= len(g.pubs) || t.To == t.From || t.Amount == 0:
		return "invalid"
	case t.Nonce < g.nextNonce[t.From]:
		return "stale_nonce"
	}
	i, found := slices.BinarySearchFunc(g.transfers, t, transferOrder)
	switch {
	case found && g.transfers[i].To == t.To && g.transfers[i].Amount == t.Amount && bytes.Equal(g.transfers[i].Sig, t.Sig):
		return ""
	case found:
		return "duplicate"
	case t.Verify(g.pubs[t.From]) != nil:
		return "bad_sig"
	}
	g.transfers = slices.Insert(g.transfers, i, t)
	g.settle(nil)
	return ""
}

// fileStake files one stake-transform message, counting it under
// node.stake_ignored_total{reason} when it is of no use.
func (g *Governor) fileStake(m network.Message) {
	var reason string
	switch m.Kind {
	case network.KindStakeTx:
		reason = g.fileTransfer(m.Payload)
	case network.KindStakeState:
		// Only the round leader's signature files a proposal, whoever sent it.
		p, err := consensus.DecodeProposal(m.Payload)
		switch reason = g.roundReason(err, p.Round, p.Leader); {
		case reason != "":
		case consensus.VerifyProposalSig(p, g.pubs[p.Leader]) != nil:
			reason = "bad_sig"
		case g.proposal != nil:
			reason = "duplicate"
		default:
			g.proposal = &p
		}
	case network.KindStakeSig:
		en, err := consensus.DecodeEndorsement(m.Payload)
		switch reason = g.roundReason(err, en.Round, g.Index()); {
		case reason != "":
		case g.proposal == nil:
			reason = "not_leader"
		case en.Governor < 0 || en.Governor >= len(g.pubs) ||
			consensus.VerifyEndorsement(en, g.pubs[en.Governor], consensus.HashState(g.proposal.NewState)) != nil:
			reason = "bad_sig"
		case g.endorsements[en.Governor].Sig != nil:
			reason = "duplicate"
		default:
			g.endorsements[en.Governor] = en
		}
	case network.KindStakeBlock:
		// One that missed its round is applied in the next, before Screen.
		sb, err := consensus.DecodeStakeBlock(m.Payload)
		switch {
		case err != nil:
			reason = "decode"
		case sb.Round+1 == g.round:
			reason = g.applyStakeBlock(sb, sb.Round, g.prevLeader)
		default:
			reason = g.applyStakeBlock(sb, g.round, g.leader)
		}
	case network.KindEvidence:
		// About a proposal of a round since the stakes last settled, late or
		// resent, verified against them, it expels the leader that signed it.
		ev, err := consensus.DecodeEvidence(m.Payload)
		leader := ev.Proposal.Leader
		switch {
		case err != nil:
			reason = "decode"
		case ev.Proposal.Round <= g.settled || ev.Proposal.Round > g.round:
			reason = "stale_round"
		case min(leader, ev.Accuser) < 0 || max(leader, ev.Accuser) >= len(g.pubs):
			reason = "bad_sig"
		case g.expelled[leader] != nil:
			reason = "duplicate"
		default:
			err := consensus.VerifyEvidence(ev, g.pubs[ev.Accuser], g.pubs[leader], g.pubs, g.stakes, g.nextNonce)
			if errors.Is(err, consensus.ErrBadSignature) {
				reason = "bad_sig"
			} else if err != nil {
				reason = "unfounded"
			} else {
				g.expelled[leader] = &ev
				g.events.Emit(events.TypeLeaderExpelled, "", g.round, string(g.ID()),
					slog.String("leader", string(g.governorIDs[leader])),
					slog.String("accuser", string(g.governorIDs[ev.Accuser])), slog.String("reason", ev.Reason))
			}
		}
	}
	g.ignore(reason)
}

func (g *Governor) ignore(reason string) {
	if reason != "" {
		g.reg.CounterVec("node.stake_ignored_total", "reason").With(reason).Inc()
	}
}

// roundReason is why a message about round's proposal by leader is of
// no use: it did not decode, or concerns another round or leader.
func (g *Governor) roundReason(err error, round uint64, leader int) string {
	switch {
	case err != nil:
		return "decode"
	case round != g.round:
		return "stale_round"
	case g.leader < 0 || leader != g.leader:
		return "not_leader"
	}
	return ""
}

// StakeStep, called after Adopt with Ingest in between, takes the stake
// transform's next steps — lead: propose; answer the filed proposal;
// lead: assemble once every endorsement is filed — and reports whether
// this governor is done for the round (a round with nothing filed is,
// at once, sending nothing).
func (g *Governor) StakeStep(out Sender) (bool, error) {
	if g.leader < 0 || g.expelled[g.leader] != nil || g.applied != nil && g.applied.Round == g.round {
		return true, nil
	}
	me, key, id := g.Index(), g.cfg.Member.PrivateKey, g.ID()
	if me == g.leader && !g.proposed && len(g.transfers) > 0 {
		p, err := consensus.ProposeState(g.round, me, g.stakes, g.transfers, key)
		if err != nil {
			return false, err
		}
		if g.corrupt {
			g.corrupt = false
			p.NewState[0] += 1000
			p = consensus.ResignProposal(p, key)
		}
		g.proposed = true
		if err := out.Multicast(id, g.governorIDs, network.KindStakeState, consensus.EncodeProposal(p)); err != nil {
			return false, err
		}
	}
	if p := g.proposal; p != nil && !g.answered {
		g.answered = true
		err := consensus.VerifyProposal(*p, g.pubs[g.leader], g.pubs, g.stakes, g.nextNonce)
		if err != nil {
			err = out.Multicast(id, g.governorIDs, network.KindEvidence, consensus.EncodeEvidence(consensus.AccuseLeader(me, *p, err, key)))
		} else {
			g.endorsed = p
			err = out.Multicast(id, g.governorIDs[g.leader:g.leader+1], network.KindStakeSig, consensus.EncodeEndorsement(consensus.Endorse(*p, me, key)))
		}
		if err != nil {
			return false, err
		}
	}
	if g.proposed && !g.assembled && !slices.ContainsFunc(g.endorsements, func(en consensus.Endorsement) bool { return en.Sig == nil }) {
		sb, err := consensus.AssembleStakeBlock(*g.proposal, g.endorsements, g.pubs)
		if err != nil {
			return false, err
		}
		g.assembled = true
		if err := out.Multicast(id, g.governorIDs, network.KindStakeBlock, consensus.EncodeStakeBlock(sb)); err != nil {
			return false, err
		}
	}
	// Waiting on a proposal it made or answered, or for one to come.
	return !g.proposed && !g.answered && len(g.transfers) == 0, nil
}

// applyStakeBlock applies sb, if it is round's block by leader over the
// state this governor endorsed, and returns why not otherwise: the
// stakes become NEW_STATE, and each payer's next nonce moves past the
// highest the endorsed proposal spent.
func (g *Governor) applyStakeBlock(sb consensus.StakeBlock, round uint64, leader int) string {
	switch {
	case sb.Round != round:
		return "stale_round"
	case g.applied != nil && g.applied.Round == round:
		return "duplicate"
	case sb.Leader != leader:
		return "not_leader"
	case g.endorsed == nil || g.endorsed.Round != round || !slices.Equal(g.endorsed.NewState, sb.NewState) ||
		consensus.VerifyStakeBlock(sb, g.pubs) != nil:
		return "bad_sig"
	}
	g.stakes = slices.Clone(sb.NewState)
	for _, t := range g.endorsed.Txs {
		g.nextNonce[t.From] = max(g.nextNonce[t.From], t.Nonce+1)
	}
	committed := g.endorsed.Txs
	g.endorsed, g.applied, g.settled = nil, &sb, round
	g.settle(committed)
	return ""
}

// settle drops the filed transfers the stakes have no use for — silently
// those in committed; counted, any below its payer's next nonce or
// beyond what the payer can still fund, in (payer, nonce) order — so
// every transfer left on file can be proposed.
func (g *Governor) settle(committed []consensus.StakeTx) {
	left := slices.Clone(g.stakes)
	g.transfers = slices.DeleteFunc(g.transfers, func(t consensus.StakeTx) bool {
		reason := ""
		switch {
		case slices.ContainsFunc(committed, func(c consensus.StakeTx) bool { return transferOrder(c, t) == 0 }):
			return true
		case t.Nonce < g.nextNonce[t.From]:
			reason = "stale_nonce"
		case t.Amount > left[t.From]:
			reason = "insufficient"
		default:
			left[t.From] -= t.Amount
			return false
		}
		g.ignore(reason)
		return true
	})
}
