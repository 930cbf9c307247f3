package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"time"

	"repchain"
)

// kindReceipt is the kind the shard layer gives the second half of a
// cross-committee transaction, as it appears in committed records.
const kindReceipt = "xshard/receipt"

// txState is what the harness knows about one submitted transaction.
type txState struct {
	valid    bool      // ground truth
	block    int       // block of the measured window it was submitted in; -1 outside the window
	cross    bool      // sent through SubmitCross to another committee
	due      time.Time // due time (open loop) or hand-off to SubmitBatch (closed loop) of the first submission
	round    int       // harness round of (first) submission
	provider int
	tx       repchain.Tx
	attempts int // submissions of this payload: 1, plus one per client retry

	seen           int  // appearances in committed blocks
	recValid       int  // appearances with status Valid
	firstUnchecked bool // first appearance was (invalid, unchecked)
	receipts       int  // cross only: receipts committed on the destination
	sampled        bool // commit latency already taken
	duplicate      bool // appeared more often than the protocol allows
}

// account tracks every submitted transaction against the committed
// blocks: latency samples, the failure count, and the chained digest
// that stands in for the head hash (the facade exposes records, not
// block hashes).
type account struct {
	txs map[repchain.TxID]*txState
	// byPayload finds the lock a receipt belongs to: a receipt re-carries
	// the inner payload as its last field, and payloads are unique.
	byPayload map[string]*txState

	attempted int // transactions handed to submit (or planned, when a node died)
	refused   int // refused at submit (ErrBacklog and friends)
	unknown   int // committed records the harness never submitted
	// rerecorded counts repeat (invalid, unchecked) records of invalid
	// transactions; see observe.
	rerecorded int

	// Client retry (the chaos workload): a valid transaction not seen in
	// any block retryAfter rounds after it was sent is sent again, as a
	// client of a chain that loses unacknowledged messages would. byRound
	// lists what each round sent; retries counts the re-sends.
	retryAfter int
	byRound    map[int][]*txState
	retries    int

	latencyMS       []float64   // valid, measured transactions only
	blockLatencyMS  [][]float64 // the same samples, by the block of submission
	receiptRounds   []float64
	committedValid  int // valid measured transactions seen committed
	measuredTx      int // transactions submitted inside the measured window
	measuredCross   int
	lastCommit      time.Time
	digest          hash.Hash
	digestRounds    int
	digestAtRounds  int    // capture the digest after this many rounds (0 = at end of main phase)
	digestAtCapture string // the captured value
}

func newAccount() *account {
	return &account{
		txs:       make(map[repchain.TxID]*txState),
		byPayload: make(map[string]*txState),
		byRound:   make(map[int][]*txState),
		digest:    sha256.New(),
	}
}

// add registers one admitted transaction, submitted in block block of
// the measured window (-1: outside it).
func (a *account) add(id repchain.TxID, provider int, t repchain.Tx, cross bool, block int, due time.Time, round int) {
	st := &txState{
		valid: t.Valid, block: block, cross: cross, due: due, round: round,
		provider: provider, tx: t, attempts: 1,
	}
	a.txs[id] = st
	if cross {
		a.byPayload[string(t.Payload)] = st
	}
	if a.retryAfter > 0 {
		a.byRound[round] = append(a.byRound[round], st)
	}
	if block >= 0 {
		a.measuredTx++
		if cross {
			a.measuredCross++
		}
	}
}

// overdue returns, and forgets, the valid transactions sent retryAfter
// rounds before round that no block has shown yet, grouped by provider
// in submission order.
func (a *account) overdue(round, providers int) [][]*txState {
	sent := a.byRound[round-a.retryAfter]
	delete(a.byRound, round-a.retryAfter)
	var out [][]*txState
	for _, st := range sent {
		if st.valid && st.seen == 0 {
			if out == nil {
				out = make([][]*txState, providers)
			}
			out[st.provider] = append(out[st.provider], st)
		}
	}
	return out
}

// addRetry registers a re-send of st under its new transaction ID.
func (a *account) addRetry(id repchain.TxID, st *txState, round int) {
	a.txs[id] = st
	st.attempts++
	a.retries++
	a.byRound[round] = append(a.byRound[round], st)
}

// observe accounts one committed block, seen by its submitter at time
// at during harness round round.
func (a *account) observe(chain int, serial uint64, records []repchain.RecordStatus, at time.Time, round int) {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(chain))
	binary.BigEndian.PutUint64(hdr[8:], serial)
	a.digest.Write(hdr[:])
	for _, rec := range records {
		flags := byte(0)
		if rec.Valid {
			flags |= 1
		}
		if rec.Unchecked {
			flags |= 2
		}
		a.digest.Write(rec.ID[:])
		a.digest.Write([]byte{flags})

		st := a.txs[rec.ID]
		if st == nil {
			if rec.Kind == kindReceipt {
				a.observeReceipt(rec, at, round)
			} else {
				a.unknown++
			}
			continue
		}
		st.seen++
		if rec.Valid {
			st.recValid++
		}
		if st.seen == 1 {
			st.firstUnchecked = !rec.Valid && rec.Unchecked
		}
		// Committed twice means recorded Valid more than once per
		// submission, or a valid transaction appearing more often than
		// once per submission plus the Validity path: recorded (invalid,
		// unchecked), argued by its provider, re-recorded valid. An invalid
		// transaction recorded (invalid, unchecked) again is not a commit:
		// over TCP a governor that gets a second collector's report after
		// it screened the first re-screens the transaction next round, and
		// only records already committed valid are filtered when a block
		// is built. It is counted, not failed.
		allowed := st.attempts
		if st.firstUnchecked {
			allowed++
		}
		switch {
		case st.recValid > st.attempts || (st.valid && st.seen > allowed):
			st.duplicate = true
		case !st.valid && st.seen > st.attempts:
			a.rerecorded++
		}
		if st.seen == 1 && !st.cross {
			a.sample(st, at)
		}
	}
}

// observeReceipt matches a committed receipt to the lock it settles.
// A cross-committee transaction is committed, for its submitter, when
// the receipt lands on the destination chain.
func (a *account) observeReceipt(rec repchain.RecordStatus, at time.Time, round int) {
	if len(rec.Payload) < payloadSize {
		a.unknown++
		return
	}
	st := a.byPayload[string(rec.Payload[len(rec.Payload)-payloadSize:])]
	if st == nil {
		a.unknown++
		return
	}
	st.receipts++
	if st.receipts == 1 {
		a.sample(st, at)
		if st.block >= 0 {
			a.receiptRounds = append(a.receiptRounds, float64(round-st.round))
		}
	}
}

func (a *account) sample(st *txState, at time.Time) {
	if st.sampled || !st.valid {
		return
	}
	st.sampled = true
	if st.block >= 0 {
		latency := ms(at.Sub(st.due))
		a.latencyMS = append(a.latencyMS, latency)
		for len(a.blockLatencyMS) <= st.block {
			a.blockLatencyMS = append(a.blockLatencyMS, nil)
		}
		a.blockLatencyMS[st.block] = append(a.blockLatencyMS[st.block], latency)
		a.committedValid++
		if at.After(a.lastCommit) {
			a.lastCommit = at
		}
	}
}

// roundDone marks the end of one submitting round, for the digest that
// traced and untraced runs of one seed must share.
func (a *account) roundDone() {
	a.digestRounds++
	if a.digestRounds == a.digestAtRounds {
		a.digestAtCapture = a.digestHex()
	}
}

func (a *account) digestHex() string { return hex.EncodeToString(a.digest.Sum(nil)) }

// failures applies the failure rule to every submitted transaction. A
// valid transaction fails when it was refused, is never recorded Valid
// by the end of the drain (for a cross transaction: its receipt never
// lands), or is committed more often than the protocol allows. An
// invalid transaction fails only when it is recorded Valid.
func (a *account) failures() (failed, lostValid, duplicates int) {
	failed = a.refused
	counted := make(map[*txState]bool, len(a.txs)) // a retried transaction has several IDs
	for _, st := range a.txs {
		if counted[st] {
			continue
		}
		counted[st] = true
		switch {
		case st.duplicate:
			duplicates++
			failed++
		case st.valid && (st.recValid == 0 || (st.cross && st.receipts == 0)):
			lostValid++
			failed++
		case !st.valid && st.recValid > 0:
			failed++
		}
	}
	return failed, lostValid, duplicates
}
