package shard

import (
	"bytes"
	"errors"
	"testing"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/tx"
)

// FuzzXShardValidate feeds the validator wrapper — on every chain since
// Chain became the K=1 cluster — an arbitrary provider-authored payload
// under both reserved kinds: it must never panic, a malformed envelope
// is invalid and refused with codec.ErrCorrupt, a well-formed one gets
// exactly the inner transaction's verdict, and whatever decodes
// survives its own re-encoding.
func FuzzXShardValidate(f *testing.F) {
	inner := tx.ValidatorFunc(func(t tx.Transaction) bool {
		return t.Kind == "app" && len(t.Payload) > 0 && t.Payload[0] == 1
	})
	v := wrapValidator(inner)
	for _, payload := range [][]byte{{1, 2}, {0, 2}, nil} {
		lock := encodeLock(lockEnvelope{DstProvider: 3, Kind: "app", Payload: payload})
		receipt := encodeReceipt(receiptEnvelope{
			SrcCommittee: 1, SrcSerial: 9, LockID: crypto.Sum([]byte("lock")), Kind: "app", Payload: payload,
		})
		f.Add(true, lock)
		f.Add(false, receipt)
		f.Add(true, receipt) // the other kind's envelope
		f.Add(false, lock)
		f.Add(true, lock[:len(lock)-1])
		f.Add(false, receipt[:len(receipt)/2])
	}
	f.Fuzz(func(t *testing.T, isLock bool, p []byte) {
		kind, wellFormed := KindReceipt, false
		var innerTx tx.Transaction
		if isLock {
			kind = KindLock
			env, err := decodeLock(p)
			if err == nil {
				wellFormed, innerTx = true, tx.Transaction{Kind: env.Kind, Payload: env.Payload}
				again, err := decodeLock(encodeLock(env))
				if err != nil || again.DstProvider != env.DstProvider || again.Kind != env.Kind || !bytes.Equal(again.Payload, env.Payload) {
					t.Fatalf("lock %+v re-encodes to %+v, %v", env, again, err)
				}
			} else if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("lock refused without codec.ErrCorrupt: %v", err)
			}
		} else if env, err := decodeReceipt(p); err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("receipt refused without codec.ErrCorrupt: %v", err)
			}
		} else {
			wellFormed, innerTx = true, tx.Transaction{Kind: env.Kind, Payload: env.Payload}
			again, err := decodeReceipt(encodeReceipt(env))
			if err != nil || again.SrcCommittee != env.SrcCommittee || again.SrcSerial != env.SrcSerial ||
				again.LockID != env.LockID || again.Kind != env.Kind || !bytes.Equal(again.Payload, env.Payload) {
				t.Fatalf("receipt %+v re-encodes to %+v, %v", env, again, err)
			}
		}
		got := v.Validate(tx.Transaction{Provider: "provider/0", Kind: kind, Payload: p})
		if want := wellFormed && inner.Validate(innerTx); got != want {
			t.Fatalf("%s payload %x: valid = %v, want %v (well-formed %v)", kind, p, got, want, wellFormed)
		}
		// Any other kind passes straight through.
		if got, want := v.Validate(tx.Transaction{Kind: "app", Payload: p}), inner.Validate(tx.Transaction{Kind: "app", Payload: p}); got != want {
			t.Fatalf("app payload %x: wrapper says %v, inner %v", p, got, want)
		}
	})
}
