package consensus

import (
	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// Wire encodings of the messages governors send each other. A payload
// comes from a peer, so every decoder demands its whole input and
// bounds each count by the bytes that remain before it allocates.

// Shortest encodings of the counted elements.
const (
	minStakeBytes       = 1                           // one uvarint stake
	minStakeTxBytes     = 5                           // from, to, amount, nonce, empty signature
	minEndorsementBytes = 1 + 1 + crypto.HashSize + 1 // round, governor, state hash, empty signature
)

func encode(sizeHint int, put func(*codec.Encoder)) []byte {
	e := codec.Wrap(make([]byte, 0, sizeHint))
	put(&e)
	return e.Bytes()
}

// decodeWhole runs dec over all of b: dec reads straight through, and
// the decoder's first failure, if any, is reported once, at the end.
func decodeWhole[T any](b []byte, what string, dec func(*codec.Decoder) T) (T, error) {
	d := codec.NewDecoder(b)
	v := dec(d)
	return v, d.Finish(what, ErrDecode)
}

func readHash(d *codec.Decoder) (h crypto.Hash) {
	d.RawInto(h[:])
	return h
}

func readState(d *codec.Decoder) []uint64 {
	s := make([]uint64, d.Count(minStakeBytes))
	for i := range s {
		s[i] = d.Uint64()
	}
	return s
}

func putState(e *codec.Encoder, state []uint64) {
	e.PutInt(len(state))
	for _, s := range state {
		e.PutUint64(s)
	}
}

// EncodeStakeTx returns the payload of a transfer's broadcast.
func EncodeStakeTx(t StakeTx) []byte { return encode(96, t.Encode) }

// DecodeStakeTx parses EncodeStakeTx's output.
func DecodeStakeTx(b []byte) (StakeTx, error) {
	return decodeWhole(b, "stake tx", readStakeTx)
}

func readStakeTx(d *codec.Decoder) StakeTx {
	return StakeTx{From: d.Int(), To: d.Int(), Amount: d.Uint64(), Nonce: d.Uint64(), Sig: d.Bytes()}
}

// EncodeProposal returns a NEW_STATE proposal's wire encoding.
func EncodeProposal(p StateProposal) []byte {
	return encode(128+8*len(p.NewState)+96*len(p.Txs), p.encode)
}

func (p StateProposal) encode(e *codec.Encoder) {
	putProposalBody(e, p.Round, p.Leader, p.NewState, p.Txs)
	e.PutBytes(p.Sig)
}

// DecodeProposal parses EncodeProposal's output.
func DecodeProposal(b []byte) (StateProposal, error) {
	return decodeWhole(b, "proposal", readProposal)
}

func readProposal(d *codec.Decoder) StateProposal {
	p := StateProposal{Round: d.Uint64(), Leader: d.Int(), NewState: readState(d)}
	p.Txs = make([]StakeTx, d.Count(minStakeTxBytes))
	for i := range p.Txs {
		p.Txs[i] = readStakeTx(d)
	}
	p.Sig = d.Bytes()
	return p
}

// EncodeEndorsement returns an endorsement's wire encoding.
func EncodeEndorsement(en Endorsement) []byte { return encode(128, en.encode) }

func (en Endorsement) encode(e *codec.Encoder) {
	e.PutUint64(en.Round)
	e.PutInt(en.Governor)
	e.PutRaw(en.StateHash[:])
	e.PutBytes(en.Sig)
}

// DecodeEndorsement parses EncodeEndorsement's output.
func DecodeEndorsement(b []byte) (Endorsement, error) {
	return decodeWhole(b, "endorsement", readEndorsement)
}

func readEndorsement(d *codec.Decoder) Endorsement {
	return Endorsement{Round: d.Uint64(), Governor: d.Int(), StateHash: readHash(d), Sig: d.Bytes()}
}

// EncodeStakeBlock returns a stake block's wire encoding.
func EncodeStakeBlock(sb StakeBlock) []byte {
	return encode(64+8*len(sb.NewState)+128*len(sb.Endorsements), func(e *codec.Encoder) {
		e.PutUint64(sb.Round)
		e.PutInt(sb.Leader)
		putState(e, sb.NewState)
		e.PutInt(len(sb.Endorsements))
		for _, en := range sb.Endorsements {
			en.encode(e)
		}
	})
}

// DecodeStakeBlock parses EncodeStakeBlock's output.
func DecodeStakeBlock(b []byte) (StakeBlock, error) {
	return decodeWhole(b, "stake block", func(d *codec.Decoder) StakeBlock {
		sb := StakeBlock{Round: d.Uint64(), Leader: d.Int(), NewState: readState(d)}
		sb.Endorsements = make([]Endorsement, d.Count(minEndorsementBytes))
		for i := range sb.Endorsements {
			sb.Endorsements[i] = readEndorsement(d)
		}
		return sb
	})
}

// EncodeEvidence returns expulsion evidence's wire encoding.
func EncodeEvidence(ev Evidence) []byte {
	return encode(256+8*len(ev.Proposal.NewState)+96*len(ev.Proposal.Txs), func(e *codec.Encoder) {
		e.PutInt(ev.Accuser)
		ev.Proposal.encode(e)
		e.PutString(ev.Reason)
		e.PutBytes(ev.Sig)
	})
}

// DecodeEvidence parses EncodeEvidence's output.
func DecodeEvidence(b []byte) (Evidence, error) {
	return decodeWhole(b, "evidence", func(d *codec.Decoder) Evidence {
		return Evidence{Accuser: d.Int(), Proposal: readProposal(d), Reason: d.String(), Sig: d.Bytes()}
	})
}
