package tx

import (
	"fmt"
	"hash/maphash"
	"slices"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/identity"
)

// Batch is one provider batch: the IDs of the transactions one signing
// call covered, in order, and the provider's one signature over their
// Merkle root. A signed root over the IDs is a signature on each
// transaction, so a collector can no more fabricate or alter one than
// under a per-transaction signature (DESIGN.md §2).
type Batch struct {
	// Provider is the signing provider's node ID.
	Provider identity.NodeID
	// Leaves are the transaction IDs, in signing order.
	Leaves []crypto.Hash
	// Sig is the provider's Ed25519 signature over EncodeSigning's
	// bytes.
	Sig [crypto.SignatureSize]byte
}

// EncodeSigning appends the bytes the provider signs: a domain tag,
// the provider, the leaf count and the Merkle root of the leaves.
func (b *Batch) EncodeSigning(e *codec.Encoder) {
	root := crypto.MerkleRootHashes(b.Leaves)
	e.PutString("repchain/provider-batch/v1")
	e.PutString(string(b.Provider))
	e.PutUvarint(uint64(len(b.Leaves)))
	e.PutRaw(root[:])
}

// Verify checks the batch signature against the provider key pub
// through the key's verdict memo: every governor verifies the
// same batch on every upload, and the first check pays for all m.
func (b *Batch) Verify(pub crypto.PublicKey) error {
	e := codec.GetEncoder(96)
	b.EncodeSigning(e)
	err := crypto.CachedVerify(pub, e.Bytes(), b.Sig[:])
	e.Release()
	if err != nil {
		return fmt.Errorf("provider batch signature of %s: %w", b.Provider, ErrBadSignature)
	}
	return nil
}

// WireSizeBound returns an upper bound on the batch's encoded size in
// a list's batch table.
func (b *Batch) WireSizeBound() int {
	b = batchOrEmpty(b)
	return 24 + len(b.Provider) + len(b.Sig) + crypto.HashSize*len(b.Leaves)
}

// SignLeaves signs txs, all authored by txs[0].Provider, as one batch
// under key: one signature over the Merkle root of their IDs, ids[i]
// being txs[i].ID(). The envelopes share the batch; neither slice is
// retained.
func SignLeaves(txs []Transaction, ids []crypto.Hash, key crypto.PrivateKey) []SignedTx {
	if len(txs) == 0 {
		return nil
	}
	b := newBatch(txs[0].Provider, len(txs))
	copy(b.Leaves, ids)
	return b.sign(txs, key)
}

// sign sets b's signature under key and wraps txs, b's leaves, in
// envelopes sharing b.
func (b *Batch) sign(txs []Transaction, key crypto.PrivateKey) []SignedTx {
	e := codec.GetEncoder(96)
	b.EncodeSigning(e)
	copy(b.Sig[:], key.Sign(e.Bytes()))
	e.Release()
	out := make([]SignedTx, len(txs))
	for i, t := range txs {
		out[i] = SignedTx{Tx: t, Batch: b, Index: i}
	}
	return out
}

// batchOfOne lays out a one-leaf batch and its leaf in one allocation:
// a client submitting one transaction at a time makes only those.
type batchOfOne struct {
	b    Batch
	leaf [1]crypto.Hash
}

// newBatch returns a batch of provider with n zero leaves.
func newBatch(provider identity.NodeID, n int) *Batch {
	if n == 1 {
		o := &batchOfOne{b: Batch{Provider: provider}}
		o.b.Leaves = o.leaf[:]
		return &o.b
	}
	return &Batch{Provider: provider, Leaves: make([]crypto.Hash, n)}
}

// equal reports whether b and o have the same contents.
func (b *Batch) equal(o *Batch) bool {
	return b == o || b.Sig == o.Sig && b.Provider == o.Provider && slices.Equal(b.Leaves, o.Leaves)
}

// emptyBatch stands in for the nil batch of a zero SignedTx, so that
// one still encodes (and then fails CheckLeaf wherever it arrives).
var emptyBatch Batch

func batchOrEmpty(b *Batch) *Batch {
	if b == nil {
		return &emptyBatch
	}
	return b
}

func (b *Batch) encode(e *codec.Encoder) {
	e.PutString(string(b.Provider))
	e.PutUvarint(uint64(len(b.Leaves)))
	for i := range b.Leaves {
		e.PutRaw(b.Leaves[i][:])
	}
	e.PutBytes(b.Sig[:])
}

// minBatchBytes is the shortest batch encoding: one byte each for the
// provider and the leaf count, and the length-prefixed signature.
const minBatchBytes = 3 + crypto.SignatureSize

// decodeBatch reads one batch from d; a provider equal to like reuses
// its string.
func decodeBatch(d *codec.Decoder, like identity.NodeID) *Batch {
	b := newBatch(identity.NodeID(d.StringLike(string(like))), d.UvarintCount(crypto.HashSize))
	for i := range b.Leaves {
		d.RawInto(b.Leaves[i][:])
	}
	if n := d.Uvarint(); n != crypto.SignatureSize {
		d.Fail(fmt.Errorf("batch signature length %d", n))
	}
	d.RawInto(b.Sig[:])
	return b
}

// BatchTable numbers the distinct batches of a list of signed
// transactions in first-appearance order. Batches are told apart by
// content, never by address: two decodings of one batch are one entry,
// so an encoding does not depend on how its input happens to share
// memory.
type BatchTable struct {
	batches []*Batch
	// index hashes the entries by signature once the table outgrows a
	// scan: open addressing over a power-of-two number of slots, each
	// 1 + an entry's position or 0 when empty, at most half full.
	index []int32
}

// scanEntries is the table size below which Ref scans instead of
// keeping an index.
const scanEntries = 8

// sigSeed keys the index's hash with a per-process random seed, so no
// input can be built to crowd its signatures into one run of slots.
// Only lookup speed depends on it, never a result.
var sigSeed = maphash.MakeSeed()

// lookup returns the first entry carrying b's signature for which
// match holds, or -1. With no index it scans every entry; otherwise it
// probes from the slot b's signature hashes to, and returns in free the
// empty slot that ends the probe (-1 when it found a match).
func (t *BatchTable) lookup(b *Batch, match func(o *Batch) bool) (pos, free int) {
	if t.index == nil {
		for j, o := range t.batches {
			if o.Sig == b.Sig && match(o) {
				return j, -1
			}
		}
		return -1, -1
	}
	mask := len(t.index) - 1
	for i := int(maphash.Bytes(sigSeed, b.Sig[:])) & mask; ; i = (i + 1) & mask {
		p := t.index[i]
		if p == 0 {
			return -1, i
		}
		if o := t.batches[p-1]; o.Sig == b.Sig && match(o) {
			return int(p - 1), -1
		}
	}
}

// reindex rebuilds the index over at least slots slots.
func (t *BatchTable) reindex(slots int) {
	size := 16
	for size < slots {
		size *= 2
	}
	t.index = make([]int32, size)
	mask := size - 1
	for j, o := range t.batches {
		i := int(maphash.Bytes(sigSeed, o.Sig[:])) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(j + 1)
	}
}

// Ref returns the entry equal to b, adding b as a new entry when there
// is none; added reports the latter.
func (t *BatchTable) Ref(b *Batch) (pos int, added bool) {
	b = batchOrEmpty(b)
	n := len(t.batches)
	// The transactions of one batch usually run together.
	if n > 0 && t.batches[n-1].equal(b) {
		return n - 1, false
	}
	if n >= scanEntries && 2*(n+1) > len(t.index) {
		t.reindex(4 * (n + 1))
	}
	pos, free := t.lookup(b, b.equal)
	if pos >= 0 {
		return pos, false
	}
	if free >= 0 {
		t.index[free] = int32(n + 1)
	}
	t.batches = append(t.batches, b)
	return n, true
}

// Reset empties t, keeping its memory for the next table.
func (t *BatchTable) Reset() {
	clear(t.batches)
	t.batches = t.batches[:0]
	clear(t.index)
}

// signed reports whether an entry carries b's signature.
func (t *BatchTable) signed(b *Batch) bool {
	pos, _ := t.lookup(b, func(*Batch) bool { return true })
	return pos >= 0
}

// encodeRef appends s's list element: its batch's table position, its
// leaf index and the transaction.
func (s SignedTx) encodeRef(e *codec.Encoder, pos int) {
	e.PutUvarint(uint64(pos))
	e.PutUvarint(uint64(s.Index))
	s.Tx.encode(e)
}

// EncodeList appends items as a list of signed transactions — the one
// encoding of provider frames, upload items and block records
// (DESIGN.md §4g): the batch table (each distinct batch once, in
// first-appearance order), the item count, then per item its batch's
// table position, its leaf index and its transaction, followed by
// whatever rest appends for it (nothing when rest is nil).
func EncodeList[T any](e *codec.Encoder, items []T, signed func(*T) *SignedTx, rest func(*codec.Encoder, *T)) {
	t := BatchTable{batches: make([]*Batch, 0, min(len(items), 32))}
	for i := range items {
		t.Ref(signed(&items[i]).Batch)
	}
	e.PutUvarint(uint64(len(t.batches)))
	for _, b := range t.batches {
		b.encode(e)
	}
	e.PutUvarint(uint64(len(items)))
	// Second pass: an item's batch is the previous item's, or makes its
	// first appearance — the next entry — or is looked up.
	last, next := 0, 0
	for i := range items {
		s := signed(&items[i])
		b := batchOrEmpty(s.Batch)
		switch {
		case i > 0 && t.batches[last].equal(b):
		case next < len(t.batches) && t.batches[next].equal(b):
			last, next = next, next+1
		default:
			last, _ = t.Ref(b)
		}
		s.encodeRef(e, last)
		if rest != nil {
			rest(e, &items[i])
		}
	}
}

// minRefBytes is the shortest list element before the container's own
// fields: one byte each for the table position and the leaf index, and
// the 15-byte transaction tag plus one byte for each of provider, seq,
// timestamp, kind and payload.
const minRefBytes = 22

// DecodeList reads a list written by EncodeList from d, calling rest
// after each element's transaction, with the offset in d where that
// transaction's bytes begin, to read the container's fields for it from
// d; minRest is their shortest encoding. It appends the elements to out
// and their IDs to ids and returns both, so a caller that passes last
// round's slices cut to length 0 decodes without allocating them. A
// malformed list is d's failure (codec.Decoder.Err), and then the
// slices hold nothing to use. The input is untrusted: every count is
// checked against the bytes that remain before anything is allocated
// for it, and only EncodeList's own output is accepted — no
// unreferenced batch, first references in table order, no signature on
// two batches (which no two valid batches share) — so every accepted
// input re-encodes to the same bytes, and the IDs DecodeList returns
// are hashed from each transaction's bytes as received (DESIGN.md §4f).
// With only set, the elements of other providers are checked as
// strictly — rest reads their fields, given a zero SignedTx — but not
// kept or hashed. The elements of one batch share one *Batch. A kept
// transaction's payload is a view into d's input, copied by nothing:
// what keeps an element longer than its input lives copies the payload
// (DESIGN.md §4f, "Bytes at rest, views in flight").
// A leaf index is not checked here: CheckLeaf refuses it per element.
func DecodeList[T any](d *codec.Decoder, minRest int, only identity.NodeID, out []T, ids []crypto.Hash, rest func(s SignedTx, start int) T) ([]T, []crypto.Hash) {
	nb := d.UvarintCount(minBatchBytes)
	tbl := BatchTable{batches: make([]*Batch, 0, nb)}
	var prev identity.NodeID // a provider's batches tend to run together
	for j := 0; j < nb && d.Err() == nil; j++ {
		b := decodeBatch(d, prev)
		if tbl.signed(b) {
			d.Fail(fmt.Errorf("batch %d repeats a signature", j))
		}
		tbl.Ref(b)
		prev = b.Provider
	}
	n := d.UvarintCount(minRefBytes + minRest)
	if only == "" {
		out, ids = slices.Grow(out, n), slices.Grow(ids, n)
	}
	used := 0 // batches referenced so far
	kind := ""
	for i := 0; i < n && d.Err() == nil; i++ {
		// pos indexes the table only once it is known to be in it.
		pos := d.Uvarint()
		if pos > uint64(used) || pos >= uint64(len(tbl.batches)) {
			d.Fail(fmt.Errorf("element %d batch %d of %d (%d referenced)", i, pos, len(tbl.batches), used))
			break
		}
		if pos == uint64(used) {
			used++
		}
		idx := d.Uvarint()
		start := d.Offset()
		txn := decodeTransaction(d, tbl.batches[pos].Provider, kind, only)
		var s SignedTx
		keep := only == "" || txn.Provider == only
		if keep {
			kind = txn.Kind
			ids = append(ids, crypto.Sum(d.Since(start)))
			s = SignedTx{Tx: txn, Batch: tbl.batches[pos], Index: int(idx)}
		}
		v := rest(s, start)
		if keep {
			out = append(out, v)
		}
	}
	if used != nb {
		d.Fail(fmt.Errorf("%d of %d batches unreferenced", nb-used, nb))
	}
	return out, ids
}

func decodeSigned(s SignedTx, _ int) SignedTx { return s }

// EncodeListBytes returns the standalone list encoding of signed: the
// provider frame, one per linked collector per broadcast.
func EncodeListBytes(signed []SignedTx) []byte {
	e := codec.GetEncoder(64 + 160*len(signed))
	EncodeList(e, signed, func(s *SignedTx) *SignedTx { return s }, nil)
	out := e.AppendTo(nil)
	e.Release()
	return out
}

// DecodeListBytes decodes a standalone list encoding, requiring full
// consumption of b, appending the transactions to list and their IDs,
// as DecodeList hashed them, to ids.
func DecodeListBytes(b []byte, list []SignedTx, ids []crypto.Hash) ([]SignedTx, []crypto.Hash, error) {
	d := codec.NewDecoder(b)
	list, ids = DecodeList(d, 0, "", list, ids, decodeSigned)
	if err := d.Finish("signed tx list", ErrDecode); err != nil {
		return nil, nil, err
	}
	return list, ids, nil
}
