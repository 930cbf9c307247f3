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

// EncodeSigning appends the byte string the collector signs: a domain
// tag, the collector, the round, the item count, and the SHA-256 of the
// items' canonical encoding. Hashing the items keeps the signed message
// (and the verification-cache key derived from it) small at any batch
// size.
func (b UploadBatch) EncodeSigning(e *codec.Encoder) {
	body := codec.GetEncoder(192 * len(b.Items))
	encodeUploadItems(body, b.Items)
	digest := crypto.Sum(body.Bytes())
	body.Release()
	e.PutString("repchain/upload-batch/v3")
	e.PutString(string(b.Collector))
	e.PutUvarint(b.Round)
	e.PutUvarint(uint64(len(b.Items)))
	e.PutRaw(digest[:])
}

// SignUploadBatch produces the collector envelope for items uploaded in
// round.
func SignUploadBatch(collector identity.NodeID, round uint64, items []UploadItem, key crypto.PrivateKey) (UploadBatch, error) {
	for _, it := range items {
		if !it.Label.Valid() {
			return UploadBatch{}, fmt.Errorf("label %d on %s: %w", it.Label, it.Signed.ID().Short(), ErrBadLabel)
		}
	}
	b := UploadBatch{Collector: collector, Round: round, Items: items}
	e := codec.GetEncoder(128)
	b.EncodeSigning(e)
	b.Sig = key.Sign(e.Bytes())
	e.Release()
	return b, nil
}

// EncodeBytes returns the standalone wire encoding of b.
func (b UploadBatch) EncodeBytes() []byte {
	e := codec.GetEncoder(128 + 192*len(b.Items))
	e.PutString(string(b.Collector))
	e.PutUvarint(b.Round)
	encodeUploadItems(e, b.Items)
	e.PutBytes(b.Sig)
	out := e.AppendTo(nil)
	e.Release()
	return out
}

// DecodeUploadBatchBytes decodes a standalone UploadBatch encoding,
// requiring full consumption of p. The input is untrusted: the item
// count is checked against the bytes that remain before anything is
// allocated for it.
func DecodeUploadBatchBytes(p []byte) (UploadBatch, error) {
	d := codec.NewDecoder(p)
	coll, err := d.String()
	if err != nil {
		return UploadBatch{}, fmt.Errorf("upload batch collector: %w", err)
	}
	round, err := d.Uvarint()
	if err != nil {
		return UploadBatch{}, fmt.Errorf("upload batch round: %w", err)
	}
	items, err := DecodeList(d, 1, func(s SignedTx) (UploadItem, error) {
		lv, err := d.Varint()
		if err != nil {
			return UploadItem{}, fmt.Errorf("label: %w", err)
		}
		if !Label(lv).Valid() {
			return UploadItem{}, fmt.Errorf("label %d: %w", lv, ErrBadLabel)
		}
		return UploadItem{Signed: s, Label: Label(lv)}, nil
	})
	if err != nil {
		return UploadBatch{}, fmt.Errorf("upload batch items: %w", err)
	}
	b := UploadBatch{Collector: identity.NodeID(coll), Round: round, Items: items}
	if b.Sig, err = d.Bytes(); err != nil {
		return UploadBatch{}, fmt.Errorf("upload batch signature: %w", err)
	}
	if err := d.Expect(); err != nil {
		return UploadBatch{}, fmt.Errorf("upload batch: %w", err)
	}
	return b, nil
}
