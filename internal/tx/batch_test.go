package tx

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/identity"
)

// signBatch signs txs as one batch under key (SignLeaves with the IDs
// computed here).
func signBatch(txs []Transaction, key crypto.PrivateKey) []SignedTx {
	ids := make([]crypto.Hash, len(txs))
	for i, t := range txs {
		ids[i] = t.ID()
	}
	return SignLeaves(txs, ids, key)
}

// sampleBatchTxs returns n transactions of provider/0 starting at seq.
func sampleBatchTxs(n int, seq uint64) []Transaction {
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i] = sampleTx(seq + uint64(i))
	}
	return txs
}

// cloneBatch returns a deep copy of s with its own batch, so a test can
// edit the copy's leaves without touching s.
func cloneBatch(s SignedTx) SignedTx {
	b := *s.Batch
	b.Leaves = slices.Clone(b.Leaves)
	s.Batch = &b
	return s
}

// resign signs b afresh, as provider, under key.
func resign(b *Batch, provider identity.NodeID, key crypto.PrivateKey) {
	b.Provider = provider
	e := codec.NewEncoder(96)
	b.EncodeSigning(e)
	copy(b.Sig[:], key.Sign(e.Bytes()))
}

// TestProviderBatchTamper edits a signed four-transaction batch every
// way a relay could, one edit per case. The edited envelope must fail
// VerifyProvider under its provider's key with ErrBadSignature, and its
// encoding must decode to an envelope that fails the same way.
func TestProviderBatchTamper(t *testing.T) {
	pub, priv := testKey(t, 1)
	_, otherKey := testKey(t, 3)
	batchA := signBatch(sampleBatchTxs(4, 1), priv)
	batchB := signBatch(sampleBatchTxs(4, 100), priv)
	for _, s := range append(batchA, batchB...) {
		if err := s.VerifyProvider(pub); err != nil {
			t.Fatalf("untouched leaf %d: %v", s.Index, err)
		}
	}
	cases := map[string]func(s *SignedTx){
		"flipped own leaf":     func(s *SignedTx) { s.Batch.Leaves[s.Index][0] ^= 1 },
		"flipped sibling leaf": func(s *SignedTx) { s.Batch.Leaves[3][31] ^= 0x80 },
		"index at n":           func(s *SignedTx) { s.Index = len(s.Batch.Leaves) },
		"index negative":       func(s *SignedTx) { s.Index = -1 },
		"reordered leaves": func(s *SignedTx) {
			l := s.Batch.Leaves
			l[0], l[1] = l[1], l[0]
			s.Index = 0 // still its own leaf, now at 0
		},
		"truncated leaves":              func(s *SignedTx) { s.Batch.Leaves = s.Batch.Leaves[:2] },
		"extended leaves":               func(s *SignedTx) { s.Batch.Leaves = append(s.Batch.Leaves, batchB[0].ID()) },
		"re-signed by another provider": func(s *SignedTx) { resign(s.Batch, "provider/1", otherKey) },
		"re-signed under another key":   func(s *SignedTx) { resign(s.Batch, s.Tx.Provider, otherKey) },
		"spliced under another batch":   func(s *SignedTx) { s.Batch = batchB[1].Batch },
		"missing batch":                 func(s *SignedTx) { s.Batch = nil },
	}
	for name, edit := range cases {
		s := cloneBatch(batchA[1])
		edit(&s)
		if err := s.VerifyProvider(pub); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: VerifyProvider error = %v, want ErrBadSignature", name, err)
		}
		got, err := DecodeSignedTxBytes(s.EncodeBytes())
		if err != nil {
			t.Errorf("%s: encoding does not decode: %v", name, err)
			continue
		}
		if err := got.VerifyProvider(pub); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: decoded VerifyProvider error = %v, want ErrBadSignature", name, err)
		}
	}
	if err := batchA[1].VerifyProvider(pub); err != nil {
		t.Fatalf("the edits reached the original batch: %v", err)
	}
}

// TestBatchSignedOnce: every envelope of a SignBatch call shares one
// batch whose leaves are the IDs in order, and a list of them encodes
// that batch once.
func TestBatchSignedOnce(t *testing.T) {
	pub, priv := testKey(t, 1)
	signed := signBatch(sampleBatchTxs(32, 1), priv)
	for i, s := range signed {
		if s.Batch != signed[0].Batch || s.Index != i || s.Batch.Leaves[i] != s.ID() {
			t.Fatalf("envelope %d: index %d, shared batch %v", i, s.Index, s.Batch == signed[0].Batch)
		}
	}
	enc := EncodeListBytes(signed)
	if n := bytes.Count(enc, signed[0].Batch.Sig[:]); n != 1 {
		t.Fatalf("batch signature encoded %d times, want once", n)
	}
	got, err := DecodeListBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s.Batch != got[0].Batch {
			t.Fatalf("decoded element %d does not share the batch", i)
		}
		if err := s.VerifyProvider(pub); err != nil {
			t.Fatalf("decoded element %d: %v", i, err)
		}
	}
}

// TestBatchTableByContent: two copies of one batch at different
// addresses are one table entry, so an encoding does not depend on how
// its input shares memory.
func TestBatchTableByContent(t *testing.T) {
	_, priv := testKey(t, 1)
	signed := signBatch(sampleBatchTxs(3, 1), priv)
	copied := cloneBatch(signed[1])
	mixed := []SignedTx{signed[0], copied, signed[2]}
	if a, b := EncodeListBytes(signed), EncodeListBytes(mixed); !bytes.Equal(a, b) {
		t.Fatal("a copied batch changed the encoding")
	}
	// Many one-leaf batches, re-referenced out of order, past the scan
	// size: every re-reference must find its entry.
	var ones, again []SignedTx
	for i := uint64(0); i < 3*scanEntries; i++ {
		ones = append(ones, Sign(sampleTx(i), priv))
	}
	for i := len(ones) - 1; i >= 0; i-- {
		again = append(again, cloneBatch(ones[i]))
	}
	var tbl BatchTable
	for _, s := range append(ones, again...) {
		tbl.Ref(s.Batch)
	}
	if len(tbl.batches) != len(ones) {
		t.Fatalf("table of %d entries for %d distinct batches", len(tbl.batches), len(ones))
	}
}

// FuzzProviderBatchDecode feeds the provider-frame decoder — what a
// collector runs on every frame a provider sends — arbitrary bytes: it
// must never panic, never decode more leaves or elements than the input
// could hold, and whatever it accepts must re-encode to the same bytes.
func FuzzProviderBatchDecode(f *testing.F) {
	_, priv := testKey(f, 1)
	f.Add(EncodeListBytes(nil))
	f.Add(EncodeListBytes(signBatch(sampleBatchTxs(1, 1), priv)))
	thirtyTwo := EncodeListBytes(signBatch(sampleBatchTxs(32, 1), priv))
	f.Add(thirtyTwo)
	f.Add(thirtyTwo[:len(thirtyTwo)/2])
	two := append(signBatch(sampleBatchTxs(2, 1), priv), signBatch(sampleBatchTxs(2, 9), priv)...)
	f.Add(EncodeListBytes([]SignedTx{two[2], two[0], two[3], two[1]}))
	f.Fuzz(func(t *testing.T, p []byte) {
		list, err := DecodeListBytes(p)
		if err != nil {
			return
		}
		if len(list) > len(p)/minRefBytes {
			t.Fatalf("%d elements decoded from %d bytes", len(list), len(p))
		}
		leaves := 0
		var tbl BatchTable
		for _, s := range list {
			if _, added := tbl.Ref(s.Batch); added {
				leaves += len(s.Batch.Leaves)
			}
		}
		if leaves > len(p)/crypto.HashSize {
			t.Fatalf("%d leaves decoded from %d bytes", leaves, len(p))
		}
		if again := EncodeListBytes(list); !bytes.Equal(again, p) {
			t.Fatalf("accepted input does not re-encode to itself:\n in %x\nout %x", p, again)
		}
	})
}
