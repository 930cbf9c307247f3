package consensus

import (
	"fmt"

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

// reader reads fields in order and keeps the first error; after it,
// every read returns the zero value and every count 0.
type reader struct {
	d   *codec.Decoder
	err error
}

func (r *reader) u64() (v uint64) {
	if r.err == nil {
		v, r.err = r.d.Uint64()
	}
	return v
}

func (r *reader) int() (v int) {
	if r.err == nil {
		v, r.err = r.d.Int()
	}
	return v
}

func (r *reader) bytes() (v []byte) {
	if r.err == nil {
		v, r.err = r.d.Bytes()
	}
	return v
}

func (r *reader) str() (v string) {
	if r.err == nil {
		v, r.err = r.d.String()
	}
	return v
}

func (r *reader) count(minElemBytes int) (n int) {
	if r.err == nil {
		n, r.err = r.d.Count(minElemBytes)
	}
	return n
}

func (r *reader) hash() (h crypto.Hash) {
	if r.err == nil {
		var raw []byte
		raw, r.err = r.d.Raw(crypto.HashSize)
		copy(h[:], raw)
	}
	return h
}

// decodeWhole runs dec over all of b.
func decodeWhole[T any](b []byte, what string, dec func(*reader) T) (T, error) {
	r := reader{d: codec.NewDecoder(b)}
	v := dec(&r)
	if r.err == nil {
		r.err = r.d.Expect()
	}
	if r.err != nil {
		return v, fmt.Errorf("%s: %w: %w", what, ErrDecode, r.err)
	}
	return v, nil
}

func (r *reader) state() []uint64 {
	s := make([]uint64, r.count(minStakeBytes))
	for i := range s {
		s[i] = r.u64()
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
	return decodeWhole(b, "stake tx", (*reader).stakeTx)
}

func (r *reader) stakeTx() StakeTx {
	return StakeTx{From: r.int(), To: r.int(), Amount: r.u64(), Nonce: r.u64(), Sig: r.bytes()}
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
	return decodeWhole(b, "proposal", (*reader).proposal)
}

func (r *reader) proposal() StateProposal {
	p := StateProposal{Round: r.u64(), Leader: r.int(), NewState: r.state()}
	p.Txs = make([]StakeTx, r.count(minStakeTxBytes))
	for i := range p.Txs {
		p.Txs[i] = r.stakeTx()
	}
	p.Sig = r.bytes()
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
	return decodeWhole(b, "endorsement", (*reader).endorsement)
}

func (r *reader) endorsement() Endorsement {
	return Endorsement{Round: r.u64(), Governor: r.int(), StateHash: r.hash(), Sig: r.bytes()}
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
	return decodeWhole(b, "stake block", func(r *reader) StakeBlock {
		sb := StakeBlock{Round: r.u64(), Leader: r.int(), NewState: r.state()}
		sb.Endorsements = make([]Endorsement, r.count(minEndorsementBytes))
		for i := range sb.Endorsements {
			sb.Endorsements[i] = r.endorsement()
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
	return decodeWhole(b, "evidence", func(r *reader) Evidence {
		return Evidence{Accuser: r.int(), Proposal: r.proposal(), Reason: r.str(), Sig: r.bytes()}
	})
}
