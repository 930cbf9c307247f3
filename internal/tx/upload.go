package tx

import (
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/identity"
)

// UploadItem is one labeled transaction inside an UploadBatch: the
// provider envelope being forwarded and the collector's judgment.
type UploadItem struct {
	Signed SignedTx
	Label  Label
}

// WireSizeBound returns an upper bound on the item's encoded size
// without its batch's table entry (Batch.WireSizeBound), for splitting
// a drain into batches under a byte budget without encoding twice.
func (it UploadItem) WireSizeBound() int {
	t := it.Signed.Tx
	return 64 + len(t.Provider) + len(t.Kind) + len(t.Payload)
}

// UploadBatch is the broadcast_collector envelope: everything one
// collector uploads from one drain of its inbox, under one signature.
// Algorithm 1 has a collector "sign and upload" its labels; the
// signature authenticates the upload hop and is never stored in a
// block, so one per batch carries the same accountability as one per
// label (DESIGN.md §2).
type UploadBatch struct {
	// Collector identifies the uploading collector.
	Collector identity.NodeID
	// Round is the round the collector uploaded in. It lets a governor
	// tell a collector with nothing to upload (an empty batch for the
	// round) from one whose batch is still in flight.
	Round uint64
	// Items are the labeled transactions, in the collector's order.
	Items []UploadItem
	// Sig is the collector's signature over EncodeSigning's bytes.
	Sig []byte
}

// encodeUploadItems appends items as a list (EncodeList), each
// element followed by its label.
func encodeUploadItems(e *codec.Encoder, items []UploadItem) {
	EncodeList(e, items, func(it *UploadItem) *SignedTx { return &it.Signed },
		func(e *codec.Encoder, it *UploadItem) { e.PutVarint(int64(it.Label)) })
}

// Received is what DecodeUploadBatchBytes hashed from the bytes it was
// handed (DESIGN.md §4f): the items' transaction IDs, in order, and
// their list's digest (UploadBatch.Digest).
type Received struct {
	IDs    []crypto.Hash
	Digest crypto.Hash
}

// Digest returns the SHA-256 of the canonical encoding of b's items,
// the hash its collector's signature covers.
func (b UploadBatch) Digest() crypto.Hash {
	e := codec.GetEncoder(192 * len(b.Items))
	encodeUploadItems(e, b.Items)
	digest := crypto.Sum(e.Bytes())
	e.Release()
	return digest
}

// EncodeSigning appends the byte string the collector signs: a domain
// tag, the collector, the round, the item count, and digest, the items'
// Digest (or Received.Digest). Hashing the items keeps the signed
// message (and the verdict-memo key derived from it) small.
func (b UploadBatch) EncodeSigning(e *codec.Encoder, digest crypto.Hash) {
	e.PutString("repchain/upload-batch/v3")
	e.PutString(string(b.Collector))
	e.PutUvarint(b.Round)
	e.PutUvarint(uint64(len(b.Items)))
	e.PutRaw(digest[:])
}

// SignUploadBatch signs items as collector's upload in round and
// returns the batch's wire encoding. The items are encoded once: the
// collector signs the digest of the bytes it sends.
func SignUploadBatch(collector identity.NodeID, round uint64, items []UploadItem, key crypto.PrivateKey) ([]byte, error) {
	for _, it := range items {
		if !it.Label.Valid() {
			return nil, fmt.Errorf("label %d on %s: %w", it.Label, it.Signed.ID().Short(), ErrBadLabel)
		}
	}
	b := UploadBatch{Collector: collector, Round: round, Items: items}
	e := codec.GetEncoder(128 + 192*len(items))
	start := b.encodeUnsigned(e)
	msg := codec.GetEncoder(128)
	b.EncodeSigning(msg, crypto.Sum(e.Bytes()[start:]))
	e.PutBytes(key.Sign(msg.Bytes()))
	msg.Release()
	out := e.AppendTo(nil)
	e.Release()
	return out, nil
}

// encodeUnsigned appends b's wire encoding up to its signature and
// returns the offset in e at which the item list begins.
func (b UploadBatch) encodeUnsigned(e *codec.Encoder) int {
	e.PutString(string(b.Collector))
	e.PutUvarint(b.Round)
	start := e.Len()
	encodeUploadItems(e, b.Items)
	return start
}

// EncodeBytes returns the standalone wire encoding of b.
func (b UploadBatch) EncodeBytes() []byte {
	e := codec.GetEncoder(128 + 192*len(b.Items))
	b.encodeUnsigned(e)
	e.PutBytes(b.Sig)
	out := e.AppendTo(nil)
	e.Release()
	return out
}

// DecodeUploadBatchBytes decodes a standalone UploadBatch encoding,
// requiring full consumption of p, and returns what it hashed from p:
// the items' IDs and the digest of their list. The items are appended
// to items and their IDs to ids (DecodeList), so a caller can decode
// into last round's slices. The input is untrusted: the item count is
// checked against the bytes that remain before anything is allocated
// for it.
func DecodeUploadBatchBytes(p []byte, items []UploadItem, ids []crypto.Hash) (UploadBatch, Received, error) {
	d := codec.NewDecoder(p)
	b := UploadBatch{Collector: identity.NodeID(d.String()), Round: d.Uvarint()}
	start := d.Offset()
	b.Items, ids = DecodeList(d, 1, "", items, ids, func(s SignedTx, _ int) UploadItem {
		// Checked before the cast, which would map lv+256 onto lv.
		lv := d.Varint()
		if lv != int64(LabelValid) && lv != int64(LabelInvalid) {
			d.Fail(fmt.Errorf("label %d: %w", lv, ErrBadLabel))
		}
		return UploadItem{Signed: s, Label: Label(lv)}
	})
	rcv := Received{IDs: ids, Digest: crypto.Sum(d.Since(start))}
	b.Sig = d.Field()
	if err := d.Finish("upload batch", ErrDecode); err != nil {
		return UploadBatch{}, Received{}, err
	}
	return b, rcv, nil
}
