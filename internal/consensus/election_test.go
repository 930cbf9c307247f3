package consensus

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repchain/internal/crypto"
)

// electionFixture builds m governors with the given stakes.
type electionFixture struct {
	pubs   []crypto.PublicKey
	privs  []crypto.PrivateKey
	stakes []uint64
	prev   crypto.Hash
}

func newElectionFixture(t *testing.T, stakes []uint64) *electionFixture {
	t.Helper()
	fx := &electionFixture{stakes: stakes, prev: crypto.Sum([]byte("prev block"))}
	for j := range stakes {
		pub, priv := testKey(t, byte(50+j))
		fx.pubs = append(fx.pubs, pub)
		fx.privs = append(fx.privs, priv)
	}
	return fx
}

func (fx *electionFixture) run(t *testing.T, round uint64) (int, Ticket) {
	t.Helper()
	el, err := NewElection(round, fx.prev, fx.pubs, fx.stakes)
	if err != nil {
		t.Fatal(err)
	}
	for j := range fx.stakes {
		tickets := MakeTickets(fx.privs[j], fx.prev, round, j, fx.stakes[j])
		if err := el.Submit(j, tickets); err != nil {
			t.Fatalf("Submit(%d) error = %v", j, err)
		}
	}
	leader, best, err := el.Leader()
	if err != nil {
		t.Fatalf("Leader() error = %v", err)
	}
	return leader, best
}

// submitTickets offers ts as the batch of governor `governor` (key
// pub, one stake unit per ticket) to a fresh election of round `round`.
func submitTickets(pub crypto.PublicKey, prev crypto.Hash, round uint64, governor int, ts []Ticket) error {
	pubs, stakes := make([]crypto.PublicKey, governor+1), make([]uint64, governor+1)
	pubs[governor], stakes[governor] = pub, uint64(len(ts))
	el, err := NewElection(round, prev, pubs, stakes)
	if err != nil {
		return err
	}
	return el.Submit(governor, ts)
}

func TestMakeAndVerifyTickets(t *testing.T) {
	pub, priv := testKey(t, 50)
	prev := crypto.Sum([]byte("p"))
	tickets := MakeTickets(priv, prev, 3, 1, 4)
	if len(tickets) != 4 {
		t.Fatalf("MakeTickets produced %d, want 4", len(tickets))
	}
	if err := submitTickets(pub, prev, 3, 1, tickets); err != nil {
		t.Fatalf("Submit() error = %v", err)
	}
	// Tampered output rejected.
	tampered := slices.Clone(tickets)
	tampered[0].Output[0] ^= 0xff
	if err := submitTickets(pub, prev, 3, 1, tampered); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("tampered ticket error = %v, want ErrBadTicket", err)
	}
	// Wrong round rejected.
	if err := submitTickets(pub, prev, 4, 1, tickets); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("wrong round error = %v, want ErrBadTicket", err)
	}
	// Negative unit rejected.
	neg := slices.Clone(tickets)
	neg[0].Unit = -1
	if err := submitTickets(pub, prev, 3, 1, neg); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("negative unit error = %v, want ErrBadTicket", err)
	}
}

func TestTicketsRoundTrip(t *testing.T) {
	_, priv := testKey(t, 50)
	prev := crypto.Sum([]byte("p"))
	tickets := MakeTickets(priv, prev, 1, 0, 3)
	got, err := DecodeTickets(EncodeTickets(tickets))
	if err != nil {
		t.Fatalf("DecodeTickets() error = %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d tickets", len(got))
	}
	for i := range got {
		if got[i].Output != tickets[i].Output || got[i].Unit != tickets[i].Unit {
			t.Fatalf("ticket %d mismatch", i)
		}
	}
	if _, err := DecodeTickets([]byte{0xff, 0xff}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestElectionDeterministic(t *testing.T) {
	fx := newElectionFixture(t, []uint64{2, 3, 1})
	l1, t1 := fx.run(t, 7)
	l2, t2 := fx.run(t, 7)
	if l1 != l2 || t1.Output != t2.Output {
		t.Fatal("same round elected different leaders")
	}
}

func TestElectionVariesWithRound(t *testing.T) {
	fx := newElectionFixture(t, []uint64{4, 4, 4, 4})
	leaders := make(map[int]bool)
	for round := uint64(0); round < 32; round++ {
		l, _ := fx.run(t, round)
		leaders[l] = true
	}
	if len(leaders) < 2 {
		t.Fatal("leadership never rotated across 32 rounds")
	}
}

func TestElectionZeroStakeGovernorNeverLeads(t *testing.T) {
	fx := newElectionFixture(t, []uint64{0, 3, 3})
	for round := uint64(0); round < 16; round++ {
		l, _ := fx.run(t, round)
		if l == 0 {
			t.Fatal("zero-stake governor elected")
		}
	}
}

// TestElectionStakeProportional checks the PoS fairness claim: "the
// probability that a governor is elected as the leader is proportional
// to the amount of stake he owns". Governor 0 holds 3/4 of the stake.
func TestElectionStakeProportional(t *testing.T) {
	fx := newElectionFixture(t, []uint64{12, 2, 2})
	wins := make([]int, 3)
	const rounds = 600
	for round := uint64(0); round < rounds; round++ {
		l, _ := fx.run(t, round)
		wins[l]++
	}
	got := float64(wins[0]) / rounds
	// Expected 0.75; allow ±3.5 sigma ≈ ±0.062.
	if math.Abs(got-0.75) > 0.065 {
		t.Fatalf("governor 0 won %.3f of rounds, want ≈ 0.75", got)
	}
}

func TestElectionSubmitErrors(t *testing.T) {
	fx := newElectionFixture(t, []uint64{2, 2})
	el, err := NewElection(1, fx.prev, fx.pubs, fx.stakes)
	if err != nil {
		t.Fatal(err)
	}
	good := MakeTickets(fx.privs[0], fx.prev, 1, 0, 2)

	if err := el.Submit(5, good); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("bad index error = %v", err)
	}
	if err := el.Submit(0, good[:1]); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("wrong count error = %v", err)
	}
	// Claiming another governor's tickets fails proof verification.
	theirs := MakeTickets(fx.privs[1], fx.prev, 1, 1, 2)
	if err := el.Submit(0, theirs); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("stolen tickets error = %v", err)
	}
	// Duplicate units rejected.
	dup := []Ticket{good[0], good[0]}
	if err := el.Submit(0, dup); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("duplicate unit error = %v", err)
	}
	// Good submission, then double submission rejected.
	if err := el.Submit(0, good); err != nil {
		t.Fatal(err)
	}
	if err := el.Submit(0, good); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("double submission error = %v", err)
	}
	// Leader before completion fails.
	if _, _, err := el.Leader(); !errors.Is(err, ErrIncompleteElection) {
		t.Fatalf("early Leader() error = %v", err)
	}
}

// TestElectionSubmitAllOneBatch: SubmitAll checks a whole election's
// proofs in one VerifyBatch call, elects what Submit one by one elects,
// and names the governor whose error Submit one by one would have
// returned first.
func TestElectionSubmitAllOneBatch(t *testing.T) {
	fx := newElectionFixture(t, []uint64{1, 1, 1})
	const round = 9
	govs := []int{0, 1, 2}
	batches := func() [][]Ticket {
		out := make([][]Ticket, len(fx.stakes))
		for j := range out {
			out[j] = MakeTickets(fx.privs[j], fx.prev, round, j, fx.stakes[j])
		}
		return out
	}
	badProof := func(ts []Ticket) []Ticket {
		ts = slices.Clone(ts)
		ts[0].Proof = slices.Clone(ts[0].Proof)
		ts[0].Proof[5] ^= 1
		return ts
	}
	elect := func() *Election {
		el, err := NewElection(round, fx.prev, fx.pubs, fx.stakes)
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	// oneByOne is the reference: the first error of a Submit per
	// governor, and the governor it came from.
	oneByOne := func(bs [][]Ticket) (int, error) {
		el := elect()
		for i, j := range govs {
			if err := el.Submit(j, bs[i]); err != nil {
				return j, err
			}
		}
		return -1, nil
	}

	el := elect()
	before := crypto.DefaultVerifyCache.BatchStats().Calls
	if bad, err := el.SubmitAll(govs, batches()); err != nil || bad != -1 {
		t.Fatalf("SubmitAll() = %d, %v", bad, err)
	}
	if calls := crypto.DefaultVerifyCache.BatchStats().Calls - before; calls != 1 {
		t.Fatalf("SubmitAll made %d VerifyBatch calls, want 1", calls)
	}
	got, _, err := el.Leader()
	if want, _ := fx.run(t, round); err != nil || got != want {
		t.Fatalf("SubmitAll leader %d (%v), Submit one by one %d", got, err, want)
	}

	for _, tc := range []struct {
		name    string
		mutate  func(bs [][]Ticket)
		wantBad int
	}{
		{"bad proof at g0, malformed batch at g1", func(bs [][]Ticket) {
			bs[0], bs[1] = badProof(bs[0]), nil
		}, 0},
		{"bad proof only at g2", func(bs [][]Ticket) { bs[2] = badProof(bs[2]) }, 2},
		{"malformed batch at g0, bad proof at g1", func(bs [][]Ticket) {
			bs[0], bs[1] = bs[1], badProof(bs[1])
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := batches()
			tc.mutate(bs)
			wantBad, wantErr := oneByOne(bs)
			el := elect()
			bad, err := el.SubmitAll(govs, bs)
			if !errors.Is(err, ErrBadTicket) || bad != tc.wantBad || bad != wantBad || err.Error() != wantErr.Error() {
				t.Fatalf("SubmitAll() = %d, %v; one by one %d, %v; want governor %d", bad, err, wantBad, wantErr, tc.wantBad)
			}
			if el.Complete() || el.remaining != len(govs) {
				t.Fatalf("a failed SubmitAll recorded %d batches", len(govs)-el.remaining)
			}
		})
	}
}

func TestElectionAllZeroStake(t *testing.T) {
	fx := newElectionFixture(t, []uint64{0, 0})
	el, err := NewElection(1, fx.prev, fx.pubs, fx.stakes)
	if err != nil {
		t.Fatal(err)
	}
	for j := range fx.stakes {
		if err := el.Submit(j, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := el.Leader(); !errors.Is(err, ErrNoStake) {
		t.Fatalf("Leader() error = %v, want ErrNoStake", err)
	}
}

func TestNewElectionValidation(t *testing.T) {
	fx := newElectionFixture(t, []uint64{1})
	if _, err := NewElection(1, fx.prev, fx.pubs, []uint64{1, 2}); !errors.Is(err, ErrBadStake) {
		t.Fatalf("mismatched lengths error = %v", err)
	}
	if _, err := NewElection(1, fx.prev, nil, nil); !errors.Is(err, ErrBadStake) {
		t.Fatalf("empty election error = %v", err)
	}
}

func BenchmarkMakeTickets16(b *testing.B) {
	seed := make([]byte, crypto.SeedSize)
	_, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		b.Fatal(err)
	}
	prev := crypto.Sum([]byte("p"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MakeTickets(priv, prev, uint64(i), 0, 16)
	}
}
