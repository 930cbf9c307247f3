// Package ledger implements the paper's tamper-proof chain of blocks.
//
// A block B = (s, TXList, h) carries a serial number s, a list of
// provider-signed transactions with the governor's recorded statuses,
// and the hash h = H(B_prev) of the previous block (§3.1). Blocks have
// one-by-one increasing serial numbers and the chain satisfies:
//
//   - Agreement: one block per serial number;
//   - Chain Integrity: h' = H(B) links consecutive blocks under a
//     collision-resistant hash;
//   - No Skipping: a block is only retrievable once all predecessors
//     are.
//
// The package provides an in-memory store and an append-only file
// store behind a common Store interface, plus whole-chain
// verification.
package ledger

import (
	"errors"
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/tx"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrNotFound reports a retrieve for a serial number beyond the
	// chain head.
	ErrNotFound = errors.New("ledger: block not found")
	// ErrBadSerial reports an append whose serial number is not
	// head+1 (the No Skipping property).
	ErrBadSerial = errors.New("ledger: serial number out of order")
	// ErrBadPrevHash reports an append whose previous-hash field does
	// not match the head block (the Chain Integrity property).
	ErrBadPrevHash = errors.New("ledger: previous hash mismatch")
	// ErrBlockTooLarge reports a block exceeding the b_limit bound.
	ErrBlockTooLarge = errors.New("ledger: block exceeds transaction limit")
	// ErrCorruptChain reports a verification failure over a stored
	// chain.
	ErrCorruptChain = errors.New("ledger: chain verification failed")
	// ErrDecode reports a malformed block encoding.
	ErrDecode = errors.New("ledger: decode failed")
	// ErrPruned reports a retrieve for a block that was discarded
	// behind the snapshot horizon.
	ErrPruned = errors.New("ledger: block pruned behind snapshot")
)

// Record is one TXList entry: a provider-signed transaction together
// with the governor's recorded judgment. Algorithm 2 appends three
// shapes — tx (checked valid), (tx, valid) (checked after a -1
// label), and (tx, invalid, unchecked) — which all normalize to this
// struct.
type Record struct {
	// Signed is the provider envelope.
	Signed tx.SignedTx
	// Label is the label of the collector the governor drew for this
	// transaction (kept so that later argue() evidence can score every
	// reporting collector; the full report set is replayed from
	// governor state).
	Label tx.Label
	// Unchecked reports that the governor skipped verification and the
	// status is the conservative invalid marking of Algorithm 2
	// line 32.
	Unchecked bool
	// Status is the governor's recorded judgment.
	Status tx.Status
}

// EncodeLeaf appends r's transaction-root leaf to e: the transaction,
// the label, the status and the unchecked flag. The leaf leaves out
// the record's batch reference; the block hash covers the batch table
// and every reference (DESIGN.md §4g).
func (r Record) EncodeLeaf(e *codec.Encoder) {
	r.Signed.Tx.EncodeSigning(e)
	encodeJudgment(e, &r)
}

// encodeJudgment appends the governor's fields of r: the fields a block
// stores after each record's transaction.
func encodeJudgment(e *codec.Encoder, r *Record) {
	e.PutVarint(int64(r.Label))
	e.PutInt(int(r.Status))
	e.PutBool(r.Unchecked)
}

// decodeJudgment reads the fields encodeJudgment writes into a record
// for s.
func decodeJudgment(d *codec.Decoder, s tx.SignedTx) (Record, error) {
	lv, err := d.Varint()
	if err != nil {
		return Record{}, fmt.Errorf("record label: %w", err)
	}
	sv, err := d.Int()
	if err != nil {
		return Record{}, fmt.Errorf("record status: %w", err)
	}
	unchecked, err := d.Bool()
	if err != nil {
		return Record{}, fmt.Errorf("record unchecked: %w", err)
	}
	st := tx.Status(sv)
	if st != tx.StatusValid && st != tx.StatusInvalid {
		return Record{}, fmt.Errorf("record status %d: %w", sv, ErrDecode)
	}
	return Record{Signed: s, Label: tx.Label(lv), Status: st, Unchecked: unchecked}, nil
}

// Block is the paper's B = (s, TXList, h), extended with a Merkle
// commitment over the TXList, the proposing leader's identity, and the
// leader's signature (DESIGN.md §5 records the extensions).
type Block struct {
	// Serial is s, the one-by-one increasing block number starting
	// at 1.
	Serial uint64
	// Records is TXList.
	Records []Record
	// PrevHash is h = H(B_prev); ZeroHash in the genesis block.
	PrevHash crypto.Hash
	// TxRoot is the Merkle root over the Records' leaf encodings
	// (Record.EncodeLeaf).
	TxRoot crypto.Hash
	// Proposer is the leading governor that assembled the block.
	Proposer identity.NodeID
	// Signature is the proposer's signature over the block hash.
	Signature []byte
}

// AppendTxRoot feeds each record's leaf encoding (EncodeLeaf) into mb
// in order. Proposers call it with the builder they fill while packing so
// the root is ready at commit time; enc is a scratch encoder reused
// across records.
func AppendTxRoot(mb *crypto.MerkleBuilder, enc *codec.Encoder, records []Record) {
	for _, r := range records {
		enc.Reset()
		r.EncodeLeaf(enc)
		mb.Add(enc.Bytes())
	}
}

// ComputeTxRoot returns the Merkle root over the block's records.
func ComputeTxRoot(records []Record) crypto.Hash {
	mb := crypto.NewMerkleBuilder(len(records))
	enc := codec.GetEncoder(256)
	AppendTxRoot(mb, enc, records)
	enc.Release()
	return mb.Root()
}

// encodeHashable appends the canonical encoding of everything the block
// hash covers: serial, records — a list (tx.EncodeList) whose batch
// table carries each provider batch once, each record followed by its
// label, status and unchecked flag — previous hash, transaction root,
// and proposer; but not the proposer signature, which signs the hash.
func (b Block) encodeHashable(e *codec.Encoder) {
	e.PutString("repchain/block/v2")
	e.PutUint64(b.Serial)
	tx.EncodeList(e, b.Records, func(r *Record) *tx.SignedTx { return &r.Signed }, encodeJudgment)
	e.PutRaw(b.PrevHash[:])
	e.PutRaw(b.TxRoot[:])
	e.PutString(string(b.Proposer))
}

// Hash returns H(B), the value the next block stores in its PrevHash
// field.
func (b Block) Hash() crypto.Hash {
	e := codec.GetEncoder(256 * (len(b.Records) + 1))
	b.encodeHashable(e)
	h := crypto.Sum(e.Bytes())
	e.Release()
	return h
}

// SignAs sets the proposer identity, signs the block hash and returns
// it.
func (b *Block) SignAs(proposer identity.NodeID, key crypto.PrivateKey) crypto.Hash {
	b.Proposer = proposer
	h := b.Hash()
	b.Signature = key.Sign(h[:])
	return h
}

// VerifyProposer checks the proposer signature against pub and returns
// the block hash it checked, so a replica hashes the block once for the
// signature and the chain link. The check runs through the shared
// verification cache because every replica verifies the same proposer
// signature on the same block.
func (b Block) VerifyProposer(pub crypto.PublicKey) (crypto.Hash, error) {
	h := b.Hash()
	if err := crypto.CachedVerify(pub, h[:], b.Signature); err != nil {
		return h, fmt.Errorf("block %d proposer signature: %w", b.Serial, err)
	}
	return h, nil
}

// Encode appends the wire encoding of b to e.
func (b Block) Encode(e *codec.Encoder) {
	b.encodeHashable(e)
	e.PutBytes(b.Signature)
}

// EncodeBytes returns the standalone wire encoding of b.
func (b Block) EncodeBytes() []byte {
	e := codec.GetEncoder(256 * (len(b.Records) + 1))
	b.Encode(e)
	out := e.AppendTo(nil)
	e.Release()
	return out
}

// minJudgmentBytes is the shortest encodeJudgment output: one byte
// each for label, status and the unchecked flag.
const minJudgmentBytes = 3

// DecodeBlock reads one Block from d.
func DecodeBlock(d *codec.Decoder) (Block, error) {
	var b Block
	tag, err := d.String()
	if err != nil {
		return b, err
	}
	if tag != "repchain/block/v2" {
		return b, fmt.Errorf("block tag %q: %w", tag, ErrDecode)
	}
	if b.Serial, err = d.Uint64(); err != nil {
		return b, err
	}
	b.Records, err = tx.DecodeList(d, minJudgmentBytes, func(s tx.SignedTx) (Record, error) { return decodeJudgment(d, s) })
	if err != nil {
		return b, fmt.Errorf("block records: %w", err)
	}
	prev, err := d.Raw(crypto.HashSize)
	if err != nil {
		return b, err
	}
	if b.PrevHash, err = crypto.HashFromBytes(prev); err != nil {
		return b, err
	}
	root, err := d.Raw(crypto.HashSize)
	if err != nil {
		return b, err
	}
	if b.TxRoot, err = crypto.HashFromBytes(root); err != nil {
		return b, err
	}
	prop, err := d.String()
	if err != nil {
		return b, err
	}
	b.Proposer = identity.NodeID(prop)
	if b.Signature, err = d.Bytes(); err != nil {
		return b, err
	}
	return b, nil
}

// DecodeBlockBytes decodes a standalone block encoding, requiring full
// consumption of buf.
func DecodeBlockBytes(buf []byte) (Block, error) {
	d := codec.NewDecoder(buf)
	b, err := DecodeBlock(d)
	if err != nil {
		return Block{}, err
	}
	if err := d.Expect(); err != nil {
		return Block{}, fmt.Errorf("block: %w", err)
	}
	return b, nil
}

// NewBlock assembles an unsigned block on top of prev (nil for
// genesis), computing the transaction root. limit is b_limit; zero
// means unlimited.
func NewBlock(prev *Block, records []Record, limit int) (Block, error) {
	if prev == nil {
		return NewBlockWithRoot(0, crypto.ZeroHash, records, limit, ComputeTxRoot(records))
	}
	return NewBlockWithRoot(prev.Serial, prev.Hash(), records, limit, ComputeTxRoot(records))
}

// NewBlockWithRoot is NewBlock for proposers that know their chain's
// height and head hash (Store.Height, Store.HeadHash: 0 and ZeroHash
// for genesis) and already fed the records through an incremental
// crypto.MerkleBuilder while packing. root must equal
// ComputeTxRoot(records); AppendTxRoot over the same record sequence
// guarantees it.
func NewBlockWithRoot(height uint64, head crypto.Hash, records []Record, limit int, root crypto.Hash) (Block, error) {
	if limit > 0 && len(records) > limit {
		return Block{}, fmt.Errorf("%d records with b_limit %d: %w", len(records), limit, ErrBlockTooLarge)
	}
	return Block{
		Serial:   height + 1,
		Records:  append([]Record(nil), records...),
		PrevHash: head,
		TxRoot:   root,
	}, nil
}
