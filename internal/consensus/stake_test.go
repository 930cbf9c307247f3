package consensus

import (
	"errors"
	"testing"
	"testing/quick"

	"repchain/internal/crypto"
)

func testKey(t testing.TB, b byte) (crypto.PublicKey, crypto.PrivateKey) {
	t.Helper()
	seed := make([]byte, crypto.SeedSize)
	seed[0] = b
	pub, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestStakeTransfer(t *testing.T) {
	_, priv := testKey(t, 1)
	got, err := ApplyTransfers([]uint64{5, 3}, []StakeTx{SignStakeTx(0, 1, 2, 0, priv)})
	if err != nil {
		t.Fatalf("ApplyTransfers() error = %v", err)
	}
	if got[0] != 3 || got[1] != 5 {
		t.Fatalf("after transfer: %v, want [3 5]", got)
	}
}

func TestStakeTransferErrors(t *testing.T) {
	_, priv := testKey(t, 1)
	tests := []struct {
		name     string
		from, to int
		amount   uint64
		want     error
	}{
		{"insufficient", 1, 0, 10, ErrInsufficientStake},
		{"self", 0, 0, 1, ErrBadStake},
		{"zero amount", 0, 1, 0, ErrBadStake},
		{"bad from", -1, 1, 1, ErrBadStake},
		{"bad to", 0, 9, 1, ErrBadStake},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			stx := SignStakeTx(tt.from, tt.to, tt.amount, 0, priv)
			if _, err := ApplyTransfers([]uint64{5, 3}, []StakeTx{stx}); !errors.Is(err, tt.want) {
				t.Fatalf("ApplyTransfers() error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestHashStateBindsValues(t *testing.T) {
	a := HashState([]uint64{1, 2, 3})
	if a != HashState([]uint64{1, 2, 3}) {
		t.Fatal("HashState not deterministic")
	}
	if a == HashState([]uint64{1, 2, 4}) {
		t.Fatal("HashState ignores values")
	}
	if a == HashState([]uint64{1, 2}) {
		t.Fatal("HashState ignores length")
	}
}

func TestStakeTxSignVerify(t *testing.T) {
	pub, priv := testKey(t, 1)
	stx := SignStakeTx(0, 1, 5, 7, priv)
	if err := stx.Verify(pub); err != nil {
		t.Fatalf("Verify() error = %v", err)
	}
	stx.Amount = 500
	if err := stx.Verify(pub); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered Verify() error = %v, want ErrBadSignature", err)
	}
}

func TestStakeTxRoundTrip(t *testing.T) {
	_, priv := testKey(t, 1)
	stx := SignStakeTx(2, 3, 9, 1, priv)
	got, err := DecodeStakeTx(EncodeStakeTx(stx))
	if err != nil {
		t.Fatalf("DecodeStakeTx() error = %v", err)
	}
	if got.From != 2 || got.To != 3 || got.Amount != 9 || got.Nonce != 1 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestApplyTransfers(t *testing.T) {
	_, priv := testKey(t, 1)
	base := []uint64{10, 5, 0}
	txs := []StakeTx{
		SignStakeTx(0, 2, 4, 0, priv),
		SignStakeTx(1, 0, 5, 0, priv),
	}
	got, err := ApplyTransfers(base, txs)
	if err != nil {
		t.Fatalf("ApplyTransfers() error = %v", err)
	}
	want := []uint64{11, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("state = %v, want %v", got, want)
		}
	}
	// base untouched
	if base[0] != 10 {
		t.Fatal("ApplyTransfers mutated base")
	}
}

func TestApplyTransfersSequencing(t *testing.T) {
	// A transfer can spend stake received earlier in the same batch.
	_, priv := testKey(t, 1)
	base := []uint64{3, 0}
	txs := []StakeTx{
		SignStakeTx(0, 1, 3, 0, priv),
		SignStakeTx(1, 0, 2, 0, priv),
	}
	got, err := ApplyTransfers(base, txs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("state = %v", got)
	}
	// But not stake it receives later.
	bad := []StakeTx{
		SignStakeTx(1, 0, 2, 0, priv),
		SignStakeTx(0, 1, 3, 0, priv),
	}
	if _, err := ApplyTransfers(base, bad); !errors.Is(err, ErrInsufficientStake) {
		t.Fatalf("out-of-order spend error = %v, want ErrInsufficientStake", err)
	}
}

func TestApplyTransfersRejectsBadIndices(t *testing.T) {
	_, priv := testKey(t, 1)
	base := []uint64{3, 3}
	for _, bad := range []StakeTx{
		SignStakeTx(0, 0, 1, 0, priv),
		SignStakeTx(-1, 1, 1, 0, priv),
		SignStakeTx(0, 5, 1, 0, priv),
		SignStakeTx(0, 1, 0, 0, priv),
	} {
		if _, err := ApplyTransfers(base, []StakeTx{bad}); !errors.Is(err, ErrBadStake) {
			t.Fatalf("transfer %+v error = %v, want ErrBadStake", bad, err)
		}
	}
}

// TestQuickTransfersConserveStake: any valid transfer sequence
// conserves total stake.
func TestQuickTransfersConserveStake(t *testing.T) {
	_, priv := testKey(t, 2)
	f := func(moves []struct {
		From, To uint8
		Amt      uint8
	}) bool {
		base := []uint64{100, 100, 100, 100}
		txs := make([]StakeTx, 0, len(moves))
		for _, m := range moves {
			txs = append(txs, SignStakeTx(int(m.From%4), int(m.To%4), uint64(m.Amt), 0, priv))
		}
		got, err := ApplyTransfers(base, txs)
		if err != nil {
			return true // invalid sequences are allowed to fail
		}
		var total uint64
		for _, s := range got {
			total += s
		}
		return total == 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
