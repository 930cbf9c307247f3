package consensus

import (
	"errors"
	"testing"
	"testing/quick"

	"repchain/internal/codec"
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

func TestStakeLedgerBasics(t *testing.T) {
	l := NewStakeLedger([]uint64{5, 3, 0})
	if l.Governors() != 3 {
		t.Fatalf("Governors() = %d", l.Governors())
	}
	if l.Total() != 8 {
		t.Fatalf("Total() = %d, want 8", l.Total())
	}
	s, err := l.Of(1)
	if err != nil || s != 3 {
		t.Fatalf("Of(1) = %d, %v", s, err)
	}
	if _, err := l.Of(3); !errors.Is(err, ErrBadStake) {
		t.Fatalf("Of(3) error = %v, want ErrBadStake", err)
	}
	if _, err := l.Of(-1); !errors.Is(err, ErrBadStake) {
		t.Fatalf("Of(-1) error = %v, want ErrBadStake", err)
	}
}

func TestStakeLedgerSnapshotIsCopy(t *testing.T) {
	l := NewStakeLedger([]uint64{5, 3})
	snap := l.Snapshot()
	snap[0] = 99
	if got, _ := l.Of(0); got != 5 {
		t.Fatal("Snapshot aliases internal storage")
	}
}

func TestStakeTransfer(t *testing.T) {
	l := NewStakeLedger([]uint64{5, 3})
	if err := l.Transfer(0, 1, 2); err != nil {
		t.Fatalf("Transfer() error = %v", err)
	}
	a, _ := l.Of(0)
	b, _ := l.Of(1)
	if a != 3 || b != 5 {
		t.Fatalf("after transfer: %d, %d", a, b)
	}
	if l.Total() != 8 {
		t.Fatal("transfer changed total stake")
	}
}

func TestStakeTransferErrors(t *testing.T) {
	l := NewStakeLedger([]uint64{5, 3})
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
			if err := l.Transfer(tt.from, tt.to, tt.amount); !errors.Is(err, tt.want) {
				t.Fatalf("Transfer() error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestStakeApply(t *testing.T) {
	l := NewStakeLedger([]uint64{1, 2})
	if err := l.Apply([]uint64{4, 5}); err != nil {
		t.Fatal(err)
	}
	if got, _ := l.Of(0); got != 4 {
		t.Fatal("Apply did not replace state")
	}
	if err := l.Apply([]uint64{1}); !errors.Is(err, ErrBadStake) {
		t.Fatalf("Apply(short) error = %v, want ErrBadStake", err)
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
	e := codec.NewEncoder(0)
	stx.Encode(e)
	got, err := DecodeStakeTx(codec.NewDecoder(e.Bytes()))
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
