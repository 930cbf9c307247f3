package consensus

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// FuzzRoundTicketsDecode feeds the governor-facing ticket envelope
// arbitrary bytes: it must never panic, never produce more tickets than
// the input could hold (the count is attacker-chosen and sizes an
// allocation), and whatever it accepts must re-encode to itself.
func FuzzRoundTicketsDecode(f *testing.F) {
	_, priv := testKey(f, 61)
	valid := EncodeRoundTickets(7, MakeTickets(priv, HashState([]uint64{1, 2}), 7, 1, 3))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(EncodeRoundTickets(0, nil))
	// A few bytes claiming half a million tickets.
	count := codec.NewEncoder(0)
	count.PutInt(1 << 19)
	overstated := codec.NewEncoder(0)
	overstated.PutUint64(1)
	overstated.PutBytes(count.Bytes())
	f.Add(overstated.Bytes())
	f.Fuzz(func(t *testing.T, p []byte) {
		round, ts, err := DecodeRoundTickets(p)
		if err != nil {
			return
		}
		if len(ts) > len(p)/minTicketBytes {
			t.Fatalf("%d tickets decoded from %d bytes", len(ts), len(p))
		}
		r2, ts2, err := DecodeRoundTickets(EncodeRoundTickets(round, ts))
		if err != nil || r2 != round || len(ts2) != len(ts) {
			t.Fatalf("re-encoding of an accepted envelope decodes to round %d, %d tickets, %v", r2, len(ts2), err)
		}
		for i := range ts {
			if ts[i].Governor != ts2[i].Governor || ts[i].Unit != ts2[i].Unit ||
				ts[i].Output != ts2[i].Output || !bytes.Equal(ts[i].Proof, ts2[i].Proof) {
				t.Fatalf("ticket %d changed across re-encoding", i)
			}
		}
	})
}

// TestQuickDecodersNeverPanic feeds random bytes to every consensus
// decoder.
func TestQuickDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		if _, err := DecodeTickets(b); err == nil {
			// fine: random bytes happened to parse
			_ = err
		}
		if _, err := DecodeStakeTx(b); err == nil {
			_ = err
		}
		if _, _, err := DecodeRoundTickets(b); err == nil {
			_ = err
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTamperedTicketRejected flips a byte of an encoded ticket
// batch: decoding may succeed, but the election must refuse the batch
// if any ticket changed.
func TestQuickTamperedTicketRejected(t *testing.T) {
	pub, priv := testKey(t, 60)
	prev := HashState([]uint64{1, 2})
	tickets := MakeTickets(priv, prev, 5, 0, 2)
	enc := EncodeTickets(tickets)
	f := func(pos uint16, bit uint8) bool {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		got, err := DecodeTickets(mut)
		if err != nil || submitTickets(pub, prev, 5, 0, got) != nil {
			return true // mutation detected
		}
		for i, tk := range got {
			// Unchanged ticket content is fine.
			if tk.Output != tickets[i].Output || tk.Unit != tickets[i].Unit || tk.Governor != tickets[i].Governor {
				return false // verified despite mutation: forgery!
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzStakeTransformDecode feeds the four stake-transform decoders —
// NEW_STATE proposal, endorsement, stake block and expulsion evidence,
// all sent governor to governor — arbitrary bytes: none may panic or
// return more elements than the input could hold (each count is
// attacker-chosen and sizes an allocation), and whatever one accepts
// must re-encode to bytes that decode to the same value.
func FuzzStakeTransformDecode(f *testing.F) {
	p := StateProposal{
		Round: 3, Leader: 1, NewState: []uint64{5, 6, 7},
		Txs: []StakeTx{{From: 0, To: 2, Amount: 1, Nonce: 4, Sig: []byte("tx sig")}},
		Sig: []byte("proposal sig"),
	}
	en := Endorsement{Round: 3, Governor: 2, StateHash: crypto.Sum([]byte("state")), Sig: []byte("en sig")}
	f.Add(EncodeProposal(p))
	f.Add(EncodeEndorsement(en))
	f.Add(EncodeStakeBlock(StakeBlock{Round: 3, Leader: 1, NewState: p.NewState, Endorsements: []Endorsement{en}}))
	f.Add(EncodeEvidence(Evidence{Accuser: 2, Proposal: p, Reason: "minted stake", Sig: []byte("ev sig")}))
	f.Add(hostileProposal())
	f.Add(hostileStakeBlock())
	// One payer spending consecutive nonces, far from zero.
	_, priv := testKey(f, 62)
	f.Add(EncodeProposal(StateProposal{Round: 9, Leader: 0, NewState: []uint64{1, 9},
		Txs: []StakeTx{SignStakeTx(0, 1, 2, 1<<40, priv), SignStakeTx(0, 1, 3, 1<<40+1, priv)}, Sig: []byte("sig")}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := DecodeProposal(b); err == nil {
			if len(p.NewState) > len(b)/minStakeBytes || len(p.Txs) > len(b)/minStakeTxBytes {
				t.Fatalf("%d stakes and %d transfers decoded from %d bytes", len(p.NewState), len(p.Txs), len(b))
			}
			again, err := DecodeProposal(EncodeProposal(p))
			roundTrips(t, "proposal", p, again, err)
		}
		if en, err := DecodeEndorsement(b); err == nil {
			again, err := DecodeEndorsement(EncodeEndorsement(en))
			roundTrips(t, "endorsement", en, again, err)
		}
		if sb, err := DecodeStakeBlock(b); err == nil {
			if len(sb.NewState) > len(b)/minStakeBytes || len(sb.Endorsements) > len(b)/minEndorsementBytes {
				t.Fatalf("%d stakes and %d endorsements decoded from %d bytes", len(sb.NewState), len(sb.Endorsements), len(b))
			}
			again, err := DecodeStakeBlock(EncodeStakeBlock(sb))
			roundTrips(t, "stake block", sb, again, err)
		}
		if ev, err := DecodeEvidence(b); err == nil {
			again, err := DecodeEvidence(EncodeEvidence(ev))
			roundTrips(t, "evidence", ev, again, err)
		}
	})
}

func roundTrips(t *testing.T, what string, want, got any, err error) {
	t.Helper()
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("re-encoding of an accepted %s decodes to %+v, %v; want %+v", what, got, err, want)
	}
}

// hostileProposal is 7 bytes: no stakes, then a claim of 2^20
// transfers.
func hostileProposal() []byte {
	e := codec.NewEncoder(0)
	e.PutUint64(1)
	e.PutInt(0)
	e.PutInt(0)
	e.PutInt(1 << 20)
	return e.Bytes()
}

// hostileStakeBlock is 6 bytes claiming 2^20 stakes.
func hostileStakeBlock() []byte {
	e := codec.NewEncoder(0)
	e.PutUint64(1)
	e.PutInt(0)
	e.PutInt(1 << 20)
	return e.Bytes()
}

// allocatedBytes returns how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecodeProposalRejectsHostileCount(t *testing.T) {
	var err error
	n := allocatedBytes(func() { _, err = DecodeProposal(hostileProposal()) })
	if err == nil || n >= 64<<10 {
		t.Fatalf("hostile proposal: error %v after allocating %d bytes, want an error under 64 KiB", err, n)
	}
}

func TestDecodeStakeBlockRejectsHostileCount(t *testing.T) {
	var err error
	n := allocatedBytes(func() { _, err = DecodeStakeBlock(hostileStakeBlock()) })
	if err == nil || n >= 64<<10 {
		t.Fatalf("hostile stake block: error %v after allocating %d bytes, want an error under 64 KiB", err, n)
	}
}
