package tx

import (
	"bytes"
	"fmt"
	"testing"

	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// TestEncodeSigningNoAllocsSteadyState pins the zero-allocation
// contract of the per-transaction encode hot path into a reused
// encoder (explicitly reused, never sync.Pool — GC may empty pools
// mid-test and break the count).
func TestEncodeSigningNoAllocsSteadyState(t *testing.T) {
	_, priv := testKey(t, 9)
	signed := Sign(sampleTx(7), priv)
	labeled, err := SignLabel(signed, LabelValid, "collector/0", priv)
	if err != nil {
		t.Fatal(err)
	}
	e := &codec.Encoder{}
	allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		signed.Tx.EncodeSigning(e)
		signed.Encode(e)
		labeled.EncodeSigning(e)
	})
	if allocs != 0 {
		t.Fatalf("per-tx encode path allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkTxEncodeSigning measures the pooled per-transaction encode
// path.
func BenchmarkTxEncodeSigning(b *testing.B) {
	seed := make([]byte, crypto.SeedSize)
	seed[0] = 9
	_, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		b.Fatal(err)
	}
	signed := Sign(sampleTx(7), priv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := codec.GetEncoder(256)
		signed.Tx.EncodeSigning(e)
		e.Release()
	}
}

// providerFrame returns the list encoding of n transactions signed as
// one batch, each with a payload of its own.
func providerFrame(t *testing.T, n int) []byte {
	t.Helper()
	_, priv := testKey(t, 9)
	txs := make([]Transaction, n)
	ids := make([]crypto.Hash, n)
	for i := range txs {
		txs[i] = sampleTx(uint64(i + 1))
		txs[i].Payload = fmt.Appendf(nil, "payload %03d", i)
		ids[i] = txs[i].ID()
	}
	return EncodeListBytes(SignLeaves(txs, ids, priv))
}

// TestDecodedPayloadsViewTheFrame checks that a decoded payload is a
// capped view into the frame it came from, not a copy, and that
// decoding a list allocates nothing per payload: a list of 64
// transactions costs the allocations of a list of 2.
func TestDecodedPayloadsViewTheFrame(t *testing.T) {
	frame := providerFrame(t, 8)
	list, _, err := DecodeListBytes(frame, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range list {
		p := s.Tx.Payload
		if len(p) == 0 || cap(p) != len(p) {
			t.Fatalf("payload %d: len %d cap %d, want a capped non-empty view", i, len(p), cap(p))
		}
		off := bytes.Index(frame, p)
		if off < 0 {
			t.Fatalf("payload %d not found in its frame", i)
		}
		frame[off] ^= 0xFF // the view sees a write to the frame
		if p[0] != frame[off] {
			t.Fatalf("payload %d is a copy, not a view into its frame", i)
		}
		frame[off] ^= 0xFF
	}
	allocs := func(n int) float64 {
		frame := providerFrame(t, n)
		return testing.AllocsPerRun(50, func() {
			if _, _, err := DecodeListBytes(frame, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if two, many := allocs(2), allocs(64); many != two {
		t.Fatalf("DecodeListBytes: %v allocations for 2 transactions, %v for 64; want no allocation per payload", two, many)
	}
}
