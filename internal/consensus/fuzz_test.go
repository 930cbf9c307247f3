package consensus

import (
	"bytes"
	"testing"
	"testing/quick"

	"repchain/internal/codec"
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
		d := codec.NewDecoder(b)
		if _, err := DecodeStakeTx(d); err == nil {
			_ = err
		}
		d2 := codec.NewDecoder(b)
		if _, err := DecodeTicket(d2); err == nil {
			_ = err
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTamperedTicketRejected flips a byte of an encoded ticket
// batch: decoding may succeed, but verification against the signer
// must fail for any mutated ticket.
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
		if err != nil {
			return true
		}
		for i, tk := range got {
			if err := VerifyTicket(pub, prev, 5, tk); err != nil {
				return true // mutation detected
			}
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
