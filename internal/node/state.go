package node

import (
	"fmt"

	"repchain/internal/codec"
)

// govStateTag versions the GovernorState encoding.
const govStateTag = "repchain/govstate/v1"

// GovernorState is the application payload of a ledger snapshot: the
// round counter plus the provable-reputation and stake state a
// governor must carry across restarts. The chain itself re-derives
// everything else, so this is the complete recovery closure of §3.2 —
// an operator restoring snapshot + log suffix gets byte-identical
// reputation to a node that never crashed.
type GovernorState struct {
	// Round is the engine round counter at the snapshot height.
	Round uint64
	// Reputation is the reputation.Table snapshot (its own versioned
	// encoding, stored opaquely).
	Reputation []byte
	// Stakes is the committed stake vector, one value per governor in
	// roster order.
	Stakes []uint64
	// Nonces is each governor's next unspent stake-transfer nonce, in
	// roster order. Empty when nothing was ever transferred; a snapshot
	// written before nonces were kept has none and restores as all zero.
	Nonces []uint64
}

// Encode renders the state with the shared codec.
func (s GovernorState) Encode() []byte {
	e := codec.GetEncoder(64 + len(s.Reputation) + 8*(len(s.Stakes)+len(s.Nonces)))
	defer e.Release()
	e.PutString(govStateTag)
	e.PutUint64(s.Round)
	e.PutBytes(s.Reputation)
	putUint64s(e, s.Stakes)
	if len(s.Nonces) > 0 {
		putUint64s(e, s.Nonces)
	}
	return e.AppendTo(nil)
}

func putUint64s(e *codec.Encoder, vs []uint64) {
	e.PutUvarint(uint64(len(vs)))
	for _, v := range vs {
		e.PutUint64(v)
	}
}

func decodeUint64s(d *codec.Decoder) []uint64 {
	vs := make([]uint64, d.UvarintCount(1))
	for i := range vs {
		vs[i] = d.Uint64()
	}
	return vs
}

// DecodeGovernorState parses an encoded GovernorState.
func DecodeGovernorState(b []byte) (GovernorState, error) {
	d := codec.NewDecoder(b)
	if tag := d.String(); tag != govStateTag {
		d.Fail(fmt.Errorf("governor state tag %q", tag))
	}
	s := GovernorState{Round: d.Uint64(), Reputation: d.Bytes(), Stakes: decodeUint64s(d)}
	// The nonces are optional, but then one per stake and last.
	if d.Remaining() != 0 {
		s.Nonces = decodeUint64s(d)
		if len(s.Nonces) != len(s.Stakes) || len(s.Nonces) == 0 {
			d.Fail(fmt.Errorf("%d nonces for %d stakes", len(s.Nonces), len(s.Stakes)))
		}
	}
	if err := d.Finish("governor state", ErrBadMessage); err != nil {
		return GovernorState{}, err
	}
	return s, nil
}
