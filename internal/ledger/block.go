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
// and every reference (DESIGN.md §4g). It returns the length of the
// transaction's encoding, the leaf's head: the bytes its ID hashes.
func (r Record) EncodeLeaf(e *codec.Encoder) int {
	start := e.Len()
	r.Signed.Tx.EncodeSigning(e)
	n := e.Len() - start
	encodeJudgment(e, &r)
	return n
}

// encodeJudgment appends the governor's fields of r: the fields a block
// stores after each record's transaction.
func encodeJudgment(e *codec.Encoder, r *Record) {
	e.PutVarint(int64(r.Label))
	e.PutInt(int(r.Status))
	e.PutBool(r.Unchecked)
}

// decodeJudgment reads the fields encodeJudgment writes into a record
// for s. A label or status is checked before its cast, which would map
// distinct varints onto one value.
func decodeJudgment(d *codec.Decoder, s tx.SignedTx) Record {
	lv := d.Varint()
	if int64(tx.Label(lv)) != lv {
		d.Fail(fmt.Errorf("record label %d", lv))
	}
	sv, unchecked := d.Varint(), d.Bool()
	if sv != int64(tx.StatusValid) && sv != int64(tx.StatusInvalid) {
		d.Fail(fmt.Errorf("record status %d", sv))
	}
	return Record{Signed: s, Label: tx.Label(lv), Status: tx.Status(sv), Unchecked: unchecked}
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

// ComputeTxRoot returns the Merkle root over the block's records' leaf
// encodings (EncodeLeaf).
func ComputeTxRoot(records []Record) crypto.Hash {
	var mb crypto.MerkleBuilder
	enc := codec.GetEncoder(256)
	for _, r := range records {
		enc.Reset()
		r.EncodeLeaf(enc)
		mb.Add(enc.Bytes())
	}
	enc.Release()
	return mb.Root()
}

// encodeHashable appends the canonical encoding of everything the block
// hash covers: serial, records — a list (tx.EncodeList) whose batch
// table carries each provider batch once, each record followed by its
// label, status and unchecked flag — previous hash, transaction root,
// and proposer; but not the proposer signature, which signs the hash.
func (b Block) encodeHashable(e *codec.Encoder) {
	e.PutString(blockTag)
	e.PutUint64(b.Serial)
	tx.EncodeList(e, b.Records, func(r *Record) *tx.SignedTx { return &r.Signed }, encodeJudgment)
	e.PutRaw(b.PrevHash[:])
	e.PutRaw(b.TxRoot[:])
	e.PutString(string(b.Proposer))
}

// blockTag heads every block encoding.
const blockTag = "repchain/block/v2"

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
	h, _ := b.Seal(proposer, key)
	return h
}

// Seal is SignAs for a proposer about to send the block: it also
// returns the block's wire encoding, encoding the block once for the
// hash it signs and the frame it sends.
func (b *Block) Seal(proposer identity.NodeID, key crypto.PrivateKey) (crypto.Hash, []byte) {
	b.Proposer = proposer
	e := codec.GetEncoder(256 * (len(b.Records) + 1))
	b.encodeHashable(e)
	h := crypto.Sum(e.Bytes())
	b.Signature = key.Sign(h[:])
	e.PutBytes(b.Signature)
	frame := e.AppendTo(nil)
	e.Release()
	return h, frame
}

// VerifyProposer checks the proposer signature over the block hash h
// against pub. The check runs through the key's verdict memo
// (crypto.CachedVerify) because every replica verifies the same
// proposer signature on the same block.
func (b Block) VerifyProposer(pub crypto.PublicKey, h crypto.Hash) error {
	if err := crypto.CachedVerify(pub, h[:], b.Signature); err != nil {
		return fmt.Errorf("block %d proposer signature: %w", b.Serial, err)
	}
	return nil
}

// EncodeBytes returns the standalone wire encoding of b: what the block
// hash covers, then the proposer signature.
func (b Block) EncodeBytes() []byte {
	e := codec.GetEncoder(256 * (len(b.Records) + 1))
	b.encodeHashable(e)
	e.PutBytes(b.Signature)
	out := e.AppendTo(nil)
	e.Release()
	return out
}

// minJudgmentBytes is the shortest encodeJudgment output: one byte
// each for label, status and the unchecked flag.
const minJudgmentBytes = 3

// Received is what ReceiveBlock hashed from a block frame's bytes
// rather than from a re-encoding (DESIGN.md §4f). The decoder accepts
// only input that re-encodes to itself, so each value equals its
// recomputation from the decoded block.
type Received struct {
	// Hash is H(B) (Block.Hash): the hash of the frame's bytes before
	// the signature.
	Hash crypto.Hash
	// Root is ComputeTxRoot over the records' leaves, each one span of
	// the frame. An honest proposer's TxRoot equals it.
	Root crypto.Hash
	// IDs are the records' transaction IDs, in order.
	IDs []crypto.Hash
}

// DecodeBlockBytes decodes a standalone block encoding, requiring full
// consumption of buf.
func DecodeBlockBytes(buf []byte) (Block, error) {
	b, _, err := decodeBlock(buf, "", nil, nil, nil)
	return b, err
}

// ReceiveBlock is DecodeBlockBytes for a replica adopting a block: it
// also returns the block's hashes, taken from buf. mb is scratch, and so
// are records and ids: the block's records are appended to records and
// their IDs to ids (tx.DecodeList).
func ReceiveBlock(buf []byte, mb *crypto.MerkleBuilder, records []Record, ids []crypto.Hash) (Block, Received, error) {
	return decodeBlock(buf, "", mb, records, ids)
}

// DecodeOwnRecords is DecodeBlockBytes for a provider observing a block:
// it materialises only the records of provider's transactions, appended
// to records, with their IDs, appended to ids, and accepts exactly the
// frames DecodeBlockBytes does.
func DecodeOwnRecords(buf []byte, provider identity.NodeID, records []Record, ids []crypto.Hash) (Block, []crypto.Hash, error) {
	b, rcv, err := decodeBlock(buf, provider, nil, records, ids)
	return b, rcv.IDs, err
}

// decodeBlock decodes buf, keeping only the records of provider only
// when that is set, appended to records and their IDs to ids
// (tx.DecodeList). Given a builder mb, it also hashes the block and each
// record's leaf from buf.
func decodeBlock(buf []byte, only identity.NodeID, mb *crypto.MerkleBuilder, records []Record, ids []crypto.Hash) (Block, Received, error) {
	d := codec.NewDecoder(buf)
	if tag := d.String(); tag != blockTag {
		d.Fail(fmt.Errorf("block tag %q", tag))
	}
	b := Block{Serial: d.Uint64()}
	var rcv Received
	if mb != nil {
		mb.Reset()
	}
	b.Records, rcv.IDs = tx.DecodeList(d, minJudgmentBytes, only, records, ids, func(s tx.SignedTx, start int) Record {
		r := decodeJudgment(d, s)
		if mb != nil {
			mb.Add(d.Since(start))
		}
		return r
	})
	d.RawInto(b.PrevHash[:])
	d.RawInto(b.TxRoot[:])
	b.Proposer = identity.NodeID(d.String())
	if mb != nil {
		rcv.Hash, rcv.Root = crypto.Sum(d.Since(0)), mb.Root()
	}
	b.Signature = d.Field()
	if err := d.Finish("block", ErrDecode); err != nil {
		return Block{}, Received{}, err
	}
	return b, rcv, nil
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
// ComputeTxRoot(records); feeding the same records' leaves in order
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
