package shard

import (
	"errors"
	"testing"

	"repchain/internal/chaos"
	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/tx"
)

// TestNoReceiptLossUnderChaos runs a K=2 cluster with an independent
// chaos injector on each committee and asserts the two-phase protocol's
// delivery guarantee: every lock that COMMITS on its source committee
// eventually yields at least one receipt on its destination, and the
// relay drains to zero pending once the faults heal.
func TestNoReceiptLossUnderChaos(t *testing.T) {
	plans := []chaos.Plan{chaos.Drop10(), chaos.PartitionThenHeal()}
	for _, plan := range plans {
		t.Run(plan.Name, func(t *testing.T) {
			cl, err := New(Config{Base: baseConfig(42), Committees: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			injs := []*chaos.Injector{
				chaos.New(cl.Engine(0), plan, 42),
				chaos.New(cl.Engine(1), plan, 43),
			}
			round := func(r int, submit func()) {
				for _, inj := range injs {
					inj.BeginRound(uint64(r))
				}
				submit()
				if _, err := cl.RunRound(); err != nil && !errors.Is(err, core.ErrRoundAborted) {
					t.Fatalf("round %d: %v", r, err)
				}
			}
			for r := 0; r < 10; r++ {
				round(r, func() {
					for j := 0; j < 8; j++ {
						if _, _, err := cl.SubmitTx(j, "local", payload(true, byte(j), byte(r)), true); err != nil {
							t.Fatal(err)
						}
					}
					if r < 6 {
						// 0 and 1 sit on different committees under
						// modulo-2; submission errors are acceptable
						// chaos fallout (crashed ingress) — the lock
						// simply never existed.
						_, _ = cl.SubmitCross(0, 1, "wire", payload(true, byte(r), 1), true)
						_, _ = cl.SubmitCross(6, 3, "wire", payload(true, byte(r), 2), true)
					}
				})
			}
			// Faults are healed (FaultUntil 5); drain the relay.
			r := 10
			for ; r < 40 && cl.PendingReceipts() > 0; r++ {
				round(r, func() {})
			}
			if got := cl.PendingReceipts(); got != 0 {
				t.Fatalf("%d receipts still pending after %d drain rounds", got, r-10)
			}

			// Every committed lock must be answered by a committed
			// receipt on the destination committee.
			committed := make(map[crypto.Hash]int) // lock ID -> dst committee
			for i := 0; i < 2; i++ {
				st := cl.Engine(i).Governor(0).Store()
				for s := uint64(1); s <= st.Height(); s++ {
					b, err := st.Get(s)
					if err != nil {
						t.Fatal(err)
					}
					for _, rec := range b.Records {
						if rec.Signed.Tx.Kind != KindLock || rec.Status != tx.StatusValid {
							continue
						}
						env, err := decodeLock(rec.Signed.Tx.Payload)
						if err != nil {
							t.Fatalf("committed lock failed to decode: %v", err)
						}
						slot, err := cl.Home(env.DstProvider)
						if err != nil {
							t.Fatal(err)
						}
						committed[rec.Signed.Tx.ID()] = slot.Committee
					}
				}
			}
			if len(committed) == 0 {
				t.Fatal("chaos run committed no locks; scenario proves nothing")
			}
			for id, dst := range committed {
				if got := receiptLockIDs(t, cl, dst)[id]; got < 1 {
					t.Fatalf("lock %x committed but no receipt reached committee %d", id, dst)
				}
			}
		})
	}
}
