package shard

import (
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/ledger"
	"repchain/internal/tx"
)

// Transaction kinds of the two-phase cross-shard protocol. Both ride
// the ordinary submission path: providers sign them, collectors label
// them, governors screen and pack them, and the CRC-framed ledger
// stores them — no side channel carries cross-shard state.
const (
	// KindLock is phase one: committed on the SOURCE committee, its
	// payload names the destination and carries the inner transaction.
	KindLock = "xshard/lock"
	// KindReceipt is phase two: committed on the DESTINATION
	// committee, its payload references the lock by transaction ID and
	// re-carries the inner transaction.
	KindReceipt = "xshard/receipt"
)

const (
	lockTag    = "repchain/xshard/lock/v1"
	receiptTag = "repchain/xshard/receipt/v1"
)

// lockEnvelope is the payload of a KindLock transaction.
type lockEnvelope struct {
	// DstProvider is the destination's GLOBAL provider index — global
	// so the reference survives re-homes between lock and receipt.
	DstProvider int
	// Kind and Payload are the inner transaction.
	Kind    string
	Payload []byte
}

func encodeLock(env lockEnvelope) []byte {
	e := codec.NewEncoder(64 + len(env.Payload))
	e.PutString(lockTag)
	e.PutInt(env.DstProvider)
	e.PutString(env.Kind)
	e.PutBytes(env.Payload)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeLock(b []byte) (lockEnvelope, error) {
	d := codec.NewDecoder(b)
	var env lockEnvelope
	tag, err := d.String()
	if err != nil || tag != lockTag {
		return env, fmt.Errorf("lock tag %q: %w", tag, codec.ErrCorrupt)
	}
	if env.DstProvider, err = d.Int(); err != nil {
		return env, fmt.Errorf("lock destination: %w", err)
	}
	if env.Kind, err = d.String(); err != nil {
		return env, fmt.Errorf("lock kind: %w", err)
	}
	if env.Payload, err = d.Bytes(); err != nil {
		return env, fmt.Errorf("lock payload: %w", err)
	}
	if err := d.Expect(); err != nil {
		return env, fmt.Errorf("lock envelope: %w", err)
	}
	return env, nil
}

// receiptEnvelope is the payload of a KindReceipt transaction.
type receiptEnvelope struct {
	// SrcCommittee and SrcSerial locate the lock block.
	SrcCommittee int
	SrcSerial    uint64
	// LockID is the lock transaction's ID — the idempotency key.
	LockID crypto.Hash
	// Kind and Payload are the inner transaction, re-carried so the
	// destination can validate and apply it without a cross-committee
	// read.
	Kind    string
	Payload []byte
}

func encodeReceipt(env receiptEnvelope) []byte {
	e := codec.NewEncoder(96 + len(env.Payload))
	e.PutString(receiptTag)
	e.PutInt(env.SrcCommittee)
	e.PutUint64(env.SrcSerial)
	e.PutBytes(env.LockID[:])
	e.PutString(env.Kind)
	e.PutBytes(env.Payload)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeReceipt(b []byte) (receiptEnvelope, error) {
	d := codec.NewDecoder(b)
	var env receiptEnvelope
	tag, err := d.String()
	if err != nil || tag != receiptTag {
		return env, fmt.Errorf("receipt tag %q: %w", tag, codec.ErrCorrupt)
	}
	if env.SrcCommittee, err = d.Int(); err != nil {
		return env, fmt.Errorf("receipt source committee: %w", err)
	}
	if env.SrcSerial, err = d.Uint64(); err != nil {
		return env, fmt.Errorf("receipt source serial: %w", err)
	}
	id, err := d.Bytes()
	if err != nil {
		return env, fmt.Errorf("receipt lock id: %w", err)
	}
	if len(id) != len(env.LockID) {
		return env, fmt.Errorf("receipt lock id length %d: %w", len(id), codec.ErrCorrupt)
	}
	copy(env.LockID[:], id)
	if env.Kind, err = d.String(); err != nil {
		return env, fmt.Errorf("receipt kind: %w", err)
	}
	if env.Payload, err = d.Bytes(); err != nil {
		return env, fmt.Errorf("receipt payload: %w", err)
	}
	if err := d.Expect(); err != nil {
		return env, fmt.Errorf("receipt envelope: %w", err)
	}
	return env, nil
}

// xshardValidator teaches an application validator about the
// cross-shard kinds: a lock or receipt is valid exactly when its inner
// transaction is, and a malformed envelope is always invalid. Other
// kinds pass through untouched, so wrapping is inert on chains that
// never see a cross-shard transaction — the K=1 byte-identity path.
type xshardValidator struct {
	inner tx.Validator
}

func wrapValidator(inner tx.Validator) tx.Validator {
	if inner == nil {
		return nil
	}
	return xshardValidator{inner: inner}
}

// Validate implements tx.Validator.
func (v xshardValidator) Validate(t tx.Transaction) bool {
	switch t.Kind {
	case KindLock:
		env, err := decodeLock(t.Payload)
		if err != nil {
			return false
		}
		innerTx := t
		innerTx.Kind, innerTx.Payload = env.Kind, env.Payload
		return v.inner.Validate(innerTx)
	case KindReceipt:
		env, err := decodeReceipt(t.Payload)
		if err != nil {
			return false
		}
		innerTx := t
		innerTx.Kind, innerTx.Payload = env.Kind, env.Payload
		return v.inner.Validate(innerTx)
	default:
		return v.inner.Validate(t)
	}
}

// pendingReceipt tracks one cross-shard transfer between the lock
// commit and the receipt commit.
type pendingReceipt struct {
	env receiptEnvelope
	// dstProvider is the destination's global provider index; the
	// (committee, local) slot is resolved at injection time so a
	// re-home between lock and receipt re-routes the receipt.
	dstProvider int
	// submitted reports whether a receipt transaction is currently
	// in flight; submittedAt is the destination engine's round counter
	// at submission, for retry pacing.
	submitted   bool
	submittedAt uint64
}

// SubmitCross submits a cross-shard transaction: global provider
// `from` locks it on its home committee for delivery to global
// provider `to`'s committee. When both live on the same committee the
// inner transaction is submitted directly — there is nothing to lock.
// It returns the staged phase-one (or direct) transaction.
func (cl *Cluster) SubmitCross(from, to int, kind string, payload []byte, valid bool) (tx.Transaction, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return tx.Transaction{}, core.ErrClosed
	}
	src, err := cl.homeLocked(from)
	if err != nil {
		return tx.Transaction{}, err
	}
	dst, err := cl.homeLocked(to)
	if err != nil {
		return tx.Transaction{}, err
	}
	if src.Committee == dst.Committee {
		return cl.engines[src.Committee].SubmitTx(src.Local, kind, payload, valid)
	}
	lock := encodeLock(lockEnvelope{DstProvider: to, Kind: kind, Payload: payload})
	return cl.engines[src.Committee].SubmitTx(src.Local, KindLock, lock, valid)
}

// injectReceipts submits every due pending receipt to its destination
// committee: fresh receipts immediately, unacknowledged ones again
// once the destination has advanced receiptRetry rounds past the last
// attempt. Submission failures (backlog, crashed ingress) leave the
// receipt pending for the next round — at-least-once delivery over
// the same lossy paths as any other transaction. Called with cl.mu
// held, before the round fan-out, in FIFO order, so the injection
// sequence is a pure function of the committed lock order.
func (cl *Cluster) injectReceipts() {
	for _, pr := range cl.pending {
		slot, err := cl.homeLocked(pr.dstProvider)
		if err != nil {
			continue
		}
		eng := cl.engines[slot.Committee]
		if pr.submitted && eng.Round() < pr.submittedAt+receiptRetry {
			continue
		}
		if _, err := eng.SubmitTx(slot.Local, KindReceipt, encodeReceipt(pr.env), true); err != nil {
			continue
		}
		pr.submitted = true
		pr.submittedAt = eng.Round()
	}
}

// scanCommitted advances the relay over every block committed since
// the last pass, walking committees in index order and serials in
// ascending order so the relay queue evolves deterministically. Blocks
// landed during rounds that errored are caught on the next pass.
// Called with cl.mu held.
func (cl *Cluster) scanCommitted() {
	for i, eng := range cl.engines {
		st := eng.Governor(0).Store()
		h := st.Height()
		s := cl.scanned[i] + 1
		for ; s <= h; s++ {
			b, err := st.Get(s)
			if err != nil {
				break
			}
			cl.scanBlock(i, b)
		}
		cl.scanned[i] = s - 1
	}
}

// scanBlock walks one committed block on committee i: valid lock
// records enqueue a receipt for their destination committee, and
// receipt records acknowledge (and drop) the matching pending entry.
// Called with cl.mu held.
func (cl *Cluster) scanBlock(i int, b ledger.Block) {
	for _, rec := range b.Records {
		switch rec.Signed.Tx.Kind {
		case KindLock:
			if rec.Status != tx.StatusValid {
				continue
			}
			env, err := decodeLock(rec.Signed.Tx.Payload)
			if err != nil {
				continue
			}
			lockID := rec.Signed.Tx.ID()
			if cl.seenLocks[lockID] {
				continue
			}
			cl.seenLocks[lockID] = true
			if _, err := cl.homeLocked(env.DstProvider); err != nil {
				continue
			}
			cl.pending = append(cl.pending, &pendingReceipt{
				env: receiptEnvelope{
					SrcCommittee: i,
					SrcSerial:    b.Serial,
					LockID:       lockID,
					Kind:         env.Kind,
					Payload:      env.Payload,
				},
				dstProvider: env.DstProvider,
			})
			cl.crossTx.Inc()
		case KindReceipt:
			env, err := decodeReceipt(rec.Signed.Tx.Payload)
			if err != nil {
				continue
			}
			for n, pr := range cl.pending {
				if pr.env.LockID == env.LockID {
					cl.pending = append(cl.pending[:n], cl.pending[n+1:]...)
					break
				}
			}
		}
	}
}
