package tx

import (
	"errors"
	"testing"

	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// sampleBatch signs n items from provider key 1 as collector/1 (key 2)
// in round 7.
func sampleBatch(t testing.TB, n int) (UploadBatch, crypto.PublicKey) {
	t.Helper()
	_, providerKey := testKey(t, 1)
	collPub, collKey := testKey(t, 2)
	items := make([]UploadItem, n)
	for i := range items {
		items[i] = UploadItem{Signed: Sign(sampleTx(uint64(i+1)), providerKey), Label: LabelValid}
		if i%2 == 1 {
			items[i].Label = LabelInvalid
		}
	}
	b, err := SignUploadBatch("collector/1", 7, items, collKey)
	if err != nil {
		t.Fatalf("SignUploadBatch() error = %v", err)
	}
	return b, collPub
}

// verifyBatch checks b's signature the way a governor does: over
// EncodeSigning's bytes.
func verifyBatch(b UploadBatch, pub crypto.PublicKey) error {
	e := codec.NewEncoder(128)
	b.EncodeSigning(e)
	return pub.Verify(e.Bytes(), b.Sig)
}

func TestUploadBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		b, collPub := sampleBatch(t, n)
		got, err := DecodeUploadBatchBytes(b.EncodeBytes())
		if err != nil {
			t.Fatalf("n=%d: DecodeUploadBatchBytes() error = %v", n, err)
		}
		if got.Collector != b.Collector || got.Round != b.Round || len(got.Items) != n {
			t.Fatalf("n=%d: decoded collector %q round %d with %d items", n, got.Collector, got.Round, len(got.Items))
		}
		for i := range got.Items {
			if got.Items[i].Label != b.Items[i].Label || got.Items[i].Signed.ID() != b.Items[i].Signed.ID() {
				t.Fatalf("n=%d: item %d differs after round trip", n, i)
			}
		}
		if err := verifyBatch(got, collPub); err != nil {
			t.Fatalf("n=%d: decoded batch does not verify: %v", n, err)
		}
	}
}

// TestUploadBatchSignatureCoversEverything edits each signed field of a
// decoded batch in turn; the collector's signature must stop verifying.
func TestUploadBatchSignatureCoversEverything(t *testing.T) {
	b, collPub := sampleBatch(t, 3)
	edits := map[string]func(*UploadBatch){
		"label flip":     func(b *UploadBatch) { b.Items[1].Label = b.Items[1].Label.Opposite() },
		"payload edit":   func(b *UploadBatch) { b.Items[0].Signed.Tx.Payload = []byte("other") },
		"provider sig":   func(b *UploadBatch) { b.Items[2].Signed.Batch.Sig[0] ^= 1 },
		"item dropped":   func(b *UploadBatch) { b.Items = b.Items[:2] },
		"items swapped":  func(b *UploadBatch) { b.Items[0], b.Items[1] = b.Items[1], b.Items[0] },
		"collector swap": func(b *UploadBatch) { b.Collector = "collector/9" },
		"round edit":     func(b *UploadBatch) { b.Round++ },
	}
	for name, edit := range edits {
		got, err := DecodeUploadBatchBytes(b.EncodeBytes())
		if err != nil {
			t.Fatal(err)
		}
		edit(&got)
		if err := verifyBatch(got, collPub); !errors.Is(err, crypto.ErrBadSignature) {
			t.Errorf("%s: verify error = %v, want ErrBadSignature", name, err)
		}
	}
}

func TestSignUploadBatchRejectsBadLabel(t *testing.T) {
	_, key := testKey(t, 1)
	items := []UploadItem{{Signed: Sign(sampleTx(1), key), Label: Label(0)}}
	if _, err := SignUploadBatch("collector/0", 1, items, key); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("SignUploadBatch() error = %v, want ErrBadLabel", err)
	}
}

func TestDecodeUploadBatchRejectsBadLabel(t *testing.T) {
	_, key := testKey(t, 1)
	e := codec.NewEncoder(0)
	e.PutString("collector/0")
	e.PutUvarint(1)                                                                // round
	encodeUploadItems(e, []UploadItem{{Signed: Sign(sampleTx(1), key), Label: 3}}) // illegal label
	e.PutBytes([]byte("sig"))
	if _, err := DecodeUploadBatchBytes(e.Bytes()); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("error = %v, want ErrBadLabel", err)
	}
}

// overstatedBatch claims count items but carries none.
func overstatedBatch(count uint64) []byte {
	e := codec.NewEncoder(0)
	e.PutString("collector/0")
	e.PutUvarint(1) // round
	e.PutUvarint(0) // no provider batches
	e.PutUvarint(count)
	e.PutBytes(make([]byte, 64))
	return e.Bytes()
}

// TestDecodeUploadBatchBoundsCount: a count the remaining bytes cannot
// hold is refused before the item slice is allocated, however large.
func TestDecodeUploadBatchBoundsCount(t *testing.T) {
	for _, count := range []uint64{4, 1 << 20, 1 << 62} {
		p := overstatedBatch(count)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := DecodeUploadBatchBytes(p); !errors.Is(err, ErrDecode) {
				t.Fatalf("count %d: error = %v, want ErrDecode", count, err)
			}
		})
		// The decoder, the collector string and the error: nothing sized
		// by the claimed count.
		if allocs > 8 {
			t.Fatalf("count %d: %v allocations refusing the batch", count, allocs)
		}
	}
}

func TestTruncatedUploadBatchNeverDecodes(t *testing.T) {
	b, _ := sampleBatch(t, 3)
	full := b.EncodeBytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeUploadBatchBytes(full[:cut]); err == nil {
			t.Fatalf("truncated input of %d bytes decoded", cut)
		}
	}
	if _, err := DecodeUploadBatchBytes(append(full, 0xAA)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestWireSizeBoundCoversEncoding(t *testing.T) {
	_, key := testKey(t, 1)
	for _, payload := range [][]byte{nil, []byte("p"), make([]byte, 70_000)} {
		tr := sampleTx(1<<63 + 5)
		tr.Timestamp, tr.Payload = -1<<62, payload
		it := UploadItem{Signed: Sign(tr, key), Label: LabelInvalid}
		e := codec.NewEncoder(0)
		encodeUploadItems(e, []UploadItem{it})
		if bound := it.WireSizeBound() + it.Signed.Batch.WireSizeBound(); e.Len() > bound {
			t.Fatalf("payload %d bytes: encoded %d > bound %d", len(payload), e.Len(), bound)
		}
	}
}

// FuzzUploadBatchDecode feeds the governor-facing decoder arbitrary
// bytes: it must never panic, never produce more items than the input
// could hold, never let an illegal label through, and whatever it
// accepts must survive its own re-encoding.
func FuzzUploadBatchDecode(f *testing.F) {
	b, _ := sampleBatch(f, 3)
	valid := b.EncodeBytes()
	empty, _ := sampleBatch(f, 0)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(empty.EncodeBytes())
	f.Add(overstatedBatch(1 << 40))
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := DecodeUploadBatchBytes(p)
		if err != nil {
			return
		}
		if len(got.Items) > len(p)/(minRefBytes+1) {
			t.Fatalf("%d items decoded from %d bytes", len(got.Items), len(p))
		}
		for _, it := range got.Items {
			if !it.Label.Valid() {
				t.Fatalf("decoded illegal label %d", it.Label)
			}
		}
		if _, err := DecodeUploadBatchBytes(got.EncodeBytes()); err != nil {
			t.Fatalf("re-encoding of an accepted batch does not decode: %v", err)
		}
	})
}

func BenchmarkUploadBatchRoundTrip(b *testing.B) {
	batch, _ := sampleBatch(b, 32)
	enc := batch.EncodeBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeUploadBatchBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}
