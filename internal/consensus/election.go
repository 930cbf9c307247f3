package consensus

import (
	"fmt"
	"slices"

	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// Ticket is one VRF evaluation for one stake unit (§3.4.3):
//
//	⟨hash_{j,u}, π_{j,u}⟩ ← VRF_{g_j}(r, j, u)
//
// The governor owning the stake unit with the globally smallest hash
// leads the round.
type Ticket struct {
	// Governor is j, the evaluating governor's index.
	Governor int
	// Unit is u, the stake-unit index, 0 ≤ u < y_j.
	Unit int
	// Output is hash_{j,u}.
	Output crypto.Hash
	// Proof is π_{j,u}.
	Proof []byte
}

// MakeTickets evaluates the VRF for each of governor j's stake units
// in round `round` on top of prevHash.
func MakeTickets(key crypto.PrivateKey, prevHash crypto.Hash, round uint64, governor int, units uint64) []Ticket {
	out := make([]Ticket, 0, units)
	for u := uint64(0); u < units; u++ {
		alpha := crypto.VRFAlpha(prevHash, round, governor, int(u))
		ev := crypto.VRFEval(key, alpha)
		out = append(out, Ticket{
			Governor: governor,
			Unit:     int(u),
			Output:   ev.Output,
			Proof:    ev.Proof,
		})
	}
	return out
}

// Encode appends the wire encoding of t to e.
func (t Ticket) Encode(e *codec.Encoder) {
	e.PutInt(t.Governor)
	e.PutInt(t.Unit)
	e.PutRaw(t.Output[:])
	e.PutBytes(t.Proof)
}

// minTicketBytes is the smallest encoded Ticket (an empty proof), the
// bound on how many tickets a payload can hold: a count is checked
// against it before anything is allocated.
const minTicketBytes = 1 + 1 + crypto.HashSize + 1

func (r *reader) ticket() Ticket {
	return Ticket{Governor: r.int(), Unit: r.int(), Output: r.hash(), Proof: r.bytes()}
}

// EncodeTickets encodes a ticket batch as one payload.
func EncodeTickets(ts []Ticket) []byte {
	e := codec.Wrap(make([]byte, 0, 96*(len(ts)+1)))
	e.PutInt(len(ts))
	for _, t := range ts {
		t.Encode(&e)
	}
	return e.Bytes()
}

// DecodeTickets decodes a ticket batch, requiring full consumption.
func DecodeTickets(b []byte) ([]Ticket, error) {
	return decodeWhole(b, "tickets", func(r *reader) []Ticket {
		ts := make([]Ticket, r.count(minTicketBytes))
		for i := range ts {
			ts[i] = r.ticket()
		}
		return ts
	})
}

// EncodeRoundTickets is the wire envelope of one governor's ticket
// batch: the round it was made for, then the batch, so a receiver can
// tell a straggler from an earlier round without verifying a proof.
func EncodeRoundTickets(round uint64, ts []Ticket) []byte {
	inner := EncodeTickets(ts)
	e := codec.Wrap(make([]byte, 0, 16+len(inner)))
	e.PutUint64(round)
	e.PutBytes(inner)
	return e.Bytes()
}

// DecodeRoundTickets opens an EncodeRoundTickets envelope.
func DecodeRoundTickets(b []byte) (uint64, []Ticket, error) {
	r := reader{d: codec.NewDecoder(b)}
	round, inner := r.u64(), r.bytes()
	if r.err != nil || r.d.Expect() != nil {
		return 0, nil, fmt.Errorf("ticket envelope: %w", ErrDecode)
	}
	ts, err := DecodeTickets(inner)
	return round, ts, err
}

// Election collects ticket submissions for one round and determines
// the leader once every governor has reported. "When a governor
// receives all the hash value from other governors, he first validates
// the proof... the owner of the stake unit with the least hash value
// becomes the leading governor of this round."
type Election struct {
	round    uint64
	prevHash crypto.Hash
	pubs     []crypto.PublicKey
	stakes   []uint64

	submitted []bool
	remaining int
	best      Ticket
	haveBest  bool
}

// NewElection starts an election for the given round over the given
// governor keys and stake snapshot.
func NewElection(round uint64, prevHash crypto.Hash, pubs []crypto.PublicKey, stakes []uint64) (*Election, error) {
	if len(pubs) != len(stakes) {
		return nil, fmt.Errorf("%d keys for %d stakes: %w", len(pubs), len(stakes), ErrBadStake)
	}
	if len(pubs) == 0 {
		return nil, fmt.Errorf("no governors: %w", ErrBadStake)
	}
	return &Election{
		round:     round,
		prevHash:  prevHash,
		pubs:      pubs,
		stakes:    stakes,
		submitted: make([]bool, len(pubs)),
		remaining: len(pubs),
	}, nil
}

// Submit records governor j's ticket batch, verifying every proof and
// that exactly one ticket per stake unit was produced. A governor with
// zero stake submits an empty batch.
func (e *Election) Submit(j int, tickets []Ticket) error {
	_, err := e.SubmitAll([]int{j}, [][]Ticket{tickets})
	return err
}

// SubmitAll is Submit for several governors at once — govs[i] submits
// batches[i] — with every proof checked in one crypto.VerifyBatch call,
// so a governor pays one cache pass per election, not one per peer. The
// error is the one a Submit per governor in govs order would have
// returned first, and bad is the governor it names (-1 on success). On
// an error nothing is recorded.
func (e *Election) SubmitAll(govs []int, batches [][]Ticket) (bad int, err error) {
	// Submit one by one stops at the first malformed batch, so only the
	// proofs before it could have failed first.
	checked := len(govs)
	var malformed error
	for i, j := range govs {
		if malformed = e.checkBatch(j, batches[i], govs[:i]); malformed != nil {
			checked = i
			break
		}
	}
	if i, err := e.verifyTickets(govs[:checked], batches[:checked]); err != nil {
		return govs[i], err
	}
	if malformed != nil {
		return govs[checked], malformed
	}
	// Scan for the minimum in submission and ticket order so ties
	// (identical outputs) resolve exactly as the sequential path always
	// has.
	for i, j := range govs {
		for _, t := range batches[i] {
			if !e.haveBest || t.Output.Less(e.best.Output) {
				e.best = t
				e.haveBest = true
			}
		}
		e.submitted[j] = true
		e.remaining--
	}
	return -1, nil
}

// checkBatch checks governor j's batch against its stake, everything
// but the proofs; earlier lists the governors submitting before it in
// the same call.
func (e *Election) checkBatch(j int, tickets []Ticket, earlier []int) error {
	if j < 0 || j >= len(e.pubs) {
		return fmt.Errorf("governor %d: %w", j, ErrBadTicket)
	}
	if e.submitted[j] || slices.Contains(earlier, j) {
		return fmt.Errorf("governor %d double submission: %w", j, ErrBadTicket)
	}
	if uint64(len(tickets)) != e.stakes[j] {
		return fmt.Errorf("governor %d submitted %d tickets for %d stake units: %w",
			j, len(tickets), e.stakes[j], ErrBadTicket)
	}
	seen := make(map[int]bool, len(tickets))
	for _, t := range tickets {
		if t.Governor != j {
			return fmt.Errorf("governor %d submitted ticket of governor %d: %w", j, t.Governor, ErrBadTicket)
		}
		if t.Unit < 0 || uint64(t.Unit) >= e.stakes[j] {
			return fmt.Errorf("governor %d ticket unit %d of %d: %w", j, t.Unit, e.stakes[j], ErrBadTicket)
		}
		if seen[t.Unit] {
			return fmt.Errorf("governor %d duplicate ticket for unit %d: %w", j, t.Unit, ErrBadTicket)
		}
		seen[t.Unit] = true
	}
	return nil
}

// verifyTickets checks every VRF proof of the given well-formed batches
// (batches[i] is govs[i]'s) through one crypto.VerifyBatch pass: proof
// checks are ordinary signature checks over VRFProofMessage(alpha), so
// the whole election is classified against the verification cache under
// a single lock. On a failure it returns the index of the batch holding
// the first failing ticket, in batch and ticket order, and its error.
func (e *Election) verifyTickets(govs []int, batches [][]Ticket) (int, error) {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	if n == 0 {
		return 0, nil
	}
	items := make([]crypto.BatchItem, 0, n)
	for i, j := range govs {
		for _, t := range batches[i] {
			alpha := crypto.VRFAlpha(e.prevHash, e.round, t.Governor, t.Unit)
			items = append(items, crypto.BatchItem{Pub: e.pubs[j], Msg: crypto.VRFProofMessage(alpha), Sig: t.Proof})
		}
	}
	errs := crypto.VerifyBatch(items)
	k := 0
	for i := range govs {
		for _, t := range batches[i] {
			if errs[k] != nil || crypto.Sum(t.Proof) != t.Output {
				return i, fmt.Errorf("ticket g%d/u%d: %w", t.Governor, t.Unit, ErrBadTicket)
			}
			k++
		}
	}
	return 0, nil
}

// Complete reports whether every governor has submitted.
func (e *Election) Complete() bool { return e.remaining == 0 }

// Leader returns the winning governor and ticket once the election is
// complete.
func (e *Election) Leader() (int, Ticket, error) {
	if !e.Complete() {
		return 0, Ticket{}, fmt.Errorf("%d governors outstanding: %w", e.remaining, ErrIncompleteElection)
	}
	if !e.haveBest {
		return 0, Ticket{}, ErrNoStake
	}
	return e.best.Governor, e.best, nil
}
