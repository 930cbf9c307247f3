package node

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/ledger"
	"repchain/internal/tx"
)

// TestQuickDecodeArgueNeverPanics feeds random bytes to the argue
// decoder.
func TestQuickDecodeArgueNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = DecodeArgueBytes(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMutatedArgueRejected flips one byte of a valid argue
// message: the result must fail decoding or fail verification.
func TestQuickMutatedArgueRejected(t *testing.T) {
	seed := make([]byte, crypto.SeedSize)
	pub, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	signed := tx.Sign(tx.Transaction{Provider: "provider/0", Seq: 1, Kind: "k", Payload: []byte{1, 2, 3}}, priv)
	msg := NewArgue(signed, 3, priv)
	enc := msg.EncodeBytes()
	f := func(pos uint16, bit uint8) bool {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		got, err := DecodeArgueBytes(mut)
		if err != nil {
			return true
		}
		// Decoded fine: either it is byte-identical semantics (the
		// flip hit a spot that round-trips — impossible with canonical
		// varints, but be safe) and verifies, or verification fails.
		if err := got.Verify(pub); err != nil {
			return true
		}
		return got.Serial == msg.Serial && got.Signed.ID() == signed.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzArgueDecode feeds the argue decoder — whose input any provider
// can send a governor — arbitrary bytes: it must never panic, whatever
// it accepts must re-encode to the same bytes, and what it refuses it
// refuses with ErrBadMessage.
func FuzzArgueDecode(f *testing.F) {
	_, priv, err := crypto.KeyFromSeed(make([]byte, crypto.SeedSize))
	if err != nil {
		f.Fatal(err)
	}
	signed := tx.Sign(tx.Transaction{Provider: "provider/0", Seq: 1, Kind: "k", Payload: []byte{1, 2, 3}}, priv)
	f.Add(NewArgue(signed, 3, priv).EncodeBytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeArgueBytes(b)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("refused without ErrBadMessage: %v", err)
			}
			return
		}
		if again := a.EncodeBytes(); !bytes.Equal(again, b) {
			t.Fatalf("accepted argue re-encodes to\n% x\nwant\n% x", again, b)
		}
	})
}

// FuzzGovernorStateDecode feeds the checkpoint decoder — whose input a
// peer will supply once catch-up serves checkpoints — arbitrary bytes:
// it must never panic, never return more stakes and nonces than the
// input could hold (each count sizes an allocation), whatever it
// accepts must re-encode to a state that decodes the same, and what it
// refuses it refuses with ErrBadMessage.
func FuzzGovernorStateDecode(f *testing.F) {
	f.Add(GovernorState{Round: 7, Reputation: []byte("rep"), Stakes: []uint64{3, 2}, Nonces: []uint64{1, 0}}.Encode())
	f.Add(GovernorState{Round: 7, Reputation: []byte("rep"), Stakes: []uint64{3, 2}}.Encode()) // no nonces kept
	f.Add(GovernorState{}.Encode())
	hostile := &codec.Encoder{}
	hostile.PutString(govStateTag)
	hostile.PutUint64(1)
	hostile.PutBytes(nil)
	hostile.PutUvarint(1 << 20)
	f.Add(hostile.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeGovernorState(b)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("refused without ErrBadMessage: %v", err)
			}
			return
		}
		if len(s.Stakes)+len(s.Nonces) > len(b) {
			t.Fatalf("%d stakes and %d nonces decoded from %d bytes", len(s.Stakes), len(s.Nonces), len(b))
		}
		again, err := DecodeGovernorState(s.Encode())
		if err != nil || again.Round != s.Round || !bytes.Equal(again.Reputation, s.Reputation) ||
			!slices.Equal(again.Stakes, s.Stakes) || !slices.Equal(again.Nonces, s.Nonces) {
			t.Fatalf("re-encoding of an accepted state decodes to %+v, %v; want %+v", again, err, s)
		}
	})
}

// TestRestoreWithoutNonces: a checkpoint from before next nonces were
// kept restores its stakes with every next nonce 0 into a governor built
// over it.
func TestRestoreWithoutNonces(t *testing.T) {
	open := onDisk(t.TempDir())
	a := newAlliance(t, open)
	a.check(a.govs[1].TransferStake(0, 1, a.bus))
	a.runRound()
	a.stake()
	if got := fmt.Sprint(a.govs[0].nextNonce); got != "[0 1 0]" {
		t.Fatalf("next nonces %s after one transfer, want [0 1 0]", got)
	}
	fs := a.govs[0].Store().(*ledger.FileStore)
	_, err := fs.WriteSnapshot(GovernorState{Round: 1, Reputation: a.govs[0].Table().Snapshot(), Stakes: []uint64{5, 0, 1}}.Encode())
	a.check(err)
	a.check(a.govs[0].Close())

	b := newAlliance(t, open)
	if got := fmt.Sprint(b.govs[0].Stakes(), b.govs[0].nextNonce); got != "[5 0 1] [0 0 0]" {
		t.Fatalf("restored stakes and next nonces %s, want [5 0 1] [0 0 0]", got)
	}
}
