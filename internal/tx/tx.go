// Package tx defines the protocol's transaction forms and the two
// signed wire envelopes of the paper's §3.1:
//
//   - broadcast_provider carries a Transaction "contain[ing] a
//     transaction payload, the current timestamp, as well as the
//     provider's signature on them, to prevent a collector from
//     fabricating one" — the SignedTx type. The provider signs a
//     batch of transactions at once, over the Merkle root of their IDs
//     (batch.go), which signs each of them;
//   - broadcast_collector carries "a transaction payload, a timestamp,
//     a recorded provider's signature, a label (e.g. valid or invalid),
//     and the collector's signature on all of them" — the UploadBatch
//     type (upload.go), which puts one collector signature over every
//     label of a round; LabeledTx is the single-label form of the same
//     statement and is not sent on the wire.
//
// Transactions are identified by the hash of their canonical encoding.
// Because the provider signs the timestamp along with the payload (the
// ID covers both), a malicious collector can neither forge a new
// transaction nor replay an old one under a fresh identity (paper
// §4.2: "A malicious collector cannot simply replicate a transaction as
// well since the transaction is signed together with the timestamp").
package tx

import (
	"errors"
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/identity"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadSignature reports an envelope whose signature fails.
	ErrBadSignature = errors.New("tx: bad signature")
	// ErrBadLabel reports a label outside {+1, -1}.
	ErrBadLabel = errors.New("tx: invalid label")
	// ErrDecode reports a malformed wire encoding.
	ErrDecode = errors.New("tx: decode failed")
)

// Label is a collector's judgment on a transaction: +1 valid, -1
// invalid (paper §3.1).
type Label int8

// The two legal labels.
const (
	// LabelValid marks a transaction the collector believes valid.
	LabelValid Label = 1
	// LabelInvalid marks a transaction the collector believes invalid.
	LabelInvalid Label = -1
)

// Valid reports whether l is one of the two legal labels.
func (l Label) Valid() bool { return l == LabelValid || l == LabelInvalid }

// String renders the label as the paper writes it.
func (l Label) String() string {
	switch l {
	case LabelValid:
		return "+1"
	case LabelInvalid:
		return "-1"
	default:
		return fmt.Sprintf("label(%d)", int8(l))
	}
}

// Status is the governor's recorded judgment in a block.
type Status int

// Statuses a transaction can carry in the ledger.
const (
	// StatusValid records a transaction validated (or successfully
	// argued) as valid.
	StatusValid Status = iota + 1
	// StatusInvalid records a transaction verified invalid, or an
	// unchecked transaction conservatively marked invalid
	// (Algorithm 2 line 32).
	StatusInvalid
)

// String returns the lowercase status name.
func (s Status) String() string {
	switch s {
	case StatusValid:
		return "valid"
	case StatusInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Transaction is the provider-authored payload before signing.
type Transaction struct {
	// Provider is the authoring provider's node ID.
	Provider identity.NodeID
	// Seq is the provider-local sequence number; together with the
	// timestamp it makes every transaction unique.
	Seq uint64
	// Timestamp is the provider's clock reading (Unix nanoseconds in
	// the TCP runtime, a logical tick in simulation).
	Timestamp int64
	// Kind names the application payload type, e.g.
	// "carshare/ride-request".
	Kind string
	// Payload is the opaque application data.
	Payload []byte
}

// encode appends the canonical encoding of t (the bytes its ID
// hashes) to e.
func (t Transaction) encode(e *codec.Encoder) {
	e.PutString(txTag)
	e.PutString(string(t.Provider))
	e.PutUint64(t.Seq)
	e.PutVarint(t.Timestamp)
	e.PutString(t.Kind)
	e.PutBytes(t.Payload)
}

// EncodeSigning appends the canonical encoding of t to e — the bytes
// its ID hashes, and so the bytes its provider batch's signature
// covers — the same bytes SigningBytes returns.
func (t Transaction) EncodeSigning(e *codec.Encoder) { t.encode(e) }

// SigningBytes returns the canonical encoding of t (EncodeSigning).
func (t Transaction) SigningBytes() []byte {
	e := codec.Wrap(make([]byte, 0, 64+len(t.Payload)))
	t.encode(&e)
	return e.Bytes()
}

// ID returns the transaction identifier: the hash of the canonical
// encoding. Two transactions with equal contents share an ID.
func (t Transaction) ID() crypto.Hash {
	e := codec.GetEncoder(64 + len(t.Payload))
	t.encode(e)
	h := crypto.Sum(e.Bytes())
	e.Release()
	return h
}

// txTag heads every transaction encoding.
const txTag = "repchain/tx/v1"

// decodeTransaction reads one transaction from d. A provider or kind
// equal to the hint passed for it reuses the hint's string: a list's
// transactions mostly repeat both. With only set, the kind and payload
// of a transaction naming another provider are checked but not copied
// into t, so nothing is allocated for it.
func decodeTransaction(d *codec.Decoder, provider identity.NodeID, kind string, only identity.NodeID) (Transaction, error) {
	var t Transaction
	tag, err := d.StringLike(txTag)
	if err != nil {
		return t, err
	}
	if tag != txTag {
		return t, fmt.Errorf("transaction tag %q: %w", tag, ErrDecode)
	}
	prov, err := d.StringLike(string(provider))
	if err != nil {
		return t, err
	}
	t.Provider = identity.NodeID(prov)
	if t.Seq, err = d.Uint64(); err != nil {
		return t, err
	}
	if t.Timestamp, err = d.Varint(); err != nil {
		return t, err
	}
	if only != "" && t.Provider != only {
		if _, err = d.Field(); err == nil {
			_, err = d.Field()
		}
		return t, err
	}
	if t.Kind, err = d.StringLike(kind); err != nil {
		return t, err
	}
	if t.Payload, err = d.Bytes(); err != nil {
		return t, err
	}
	return t, nil
}

// SignedTx is the broadcast_provider envelope: a transaction plus the
// provider batch that signs it. The provider signs its batch once, over
// the Merkle root of the batch's transaction IDs; the transaction is
// leaf Index of that batch (DESIGN.md §2).
type SignedTx struct {
	// Tx is the signed transaction.
	Tx Transaction
	// Batch is the provider batch Tx belongs to. The transactions of one
	// batch share it.
	Batch *Batch
	// Index is Tx's position among Batch.Leaves.
	Index int
}

// Sign produces the provider envelope for t: a batch of one.
func Sign(t Transaction, key crypto.PrivateKey) SignedTx {
	return SignLeaves([]Transaction{t}, []crypto.Hash{t.ID()}, key)[0]
}

// CheckLeaf reports whether s is the leaf it claims to be — its batch
// is its provider's, Index is in range, and the leaf there is id, s's
// ID. Together with the batch signature (Batch.Verify) it is the
// provider half of the paper's verify(d, m); batch verifiers check the
// signature once per batch and CheckLeaf once per transaction, with the
// ID DecodeList hashed from the bytes received.
func (s SignedTx) CheckLeaf(id crypto.Hash) error {
	b := s.Batch
	if b == nil || b.Provider != s.Tx.Provider || s.Index < 0 || s.Index >= len(b.Leaves) || b.Leaves[s.Index] != id {
		return fmt.Errorf("provider batch leaf for %s: %w", id.Short(), ErrBadSignature)
	}
	return nil
}

// VerifyProvider checks s against its provider's key pub: the leaf,
// then the batch signature through the shared verification cache.
func (s SignedTx) VerifyProvider(pub crypto.PublicKey) error {
	if err := s.CheckLeaf(s.ID()); err != nil {
		return err
	}
	return s.Batch.Verify(pub)
}

// ID returns the inner transaction's identifier.
func (s SignedTx) ID() crypto.Hash { return s.Tx.ID() }

// Encode appends the wire encoding of s to e: the list encoding of one
// element (EncodeList).
func (s SignedTx) Encode(e *codec.Encoder) {
	e.PutUvarint(1)
	batchOrEmpty(s.Batch).encode(e)
	e.PutUvarint(1)
	s.encodeRef(e, 0)
}

// EncodeBytes returns the standalone wire encoding of s.
func (s SignedTx) EncodeBytes() []byte {
	e := codec.GetEncoder(192 + len(s.Tx.Payload))
	s.Encode(e)
	out := e.AppendTo(nil)
	e.Release()
	return out
}

// DecodeSignedTx reads one SignedTx, a list of exactly one element,
// from d.
func DecodeSignedTx(d *codec.Decoder) (SignedTx, error) {
	list, _, err := DecodeList(d, 0, "", decodeSigned)
	if err != nil {
		return SignedTx{}, err
	}
	if len(list) != 1 {
		return SignedTx{}, fmt.Errorf("signed tx: list of %d: %w", len(list), ErrDecode)
	}
	return list[0], nil
}

// DecodeSignedTxBytes decodes a standalone SignedTx encoding,
// requiring full consumption of b.
func DecodeSignedTxBytes(b []byte) (SignedTx, error) {
	d := codec.NewDecoder(b)
	s, err := DecodeSignedTx(d)
	if err != nil {
		return SignedTx{}, err
	}
	if err := d.Expect(); err != nil {
		return SignedTx{}, fmt.Errorf("signed tx: %w", err)
	}
	return s, nil
}

// LabeledTx is Algorithm 1's Tx ← (tx, l, sig_ci(tx, l)) for a single
// label. Collectors upload UploadBatch envelopes instead; this form
// stays as the one-label signing primitive.
type LabeledTx struct {
	// Signed is the provider envelope being forwarded.
	Signed SignedTx
	// Label is the collector's judgment.
	Label Label
	// Collector identifies the uploading collector.
	Collector identity.NodeID
	// Sig is the collector's signature over (Signed, Label, Collector).
	Sig []byte
}

// EncodeSigning appends the canonical byte string the collector signs
// — the provider envelope, the label, and the collector identity — to
// e.
func (lt LabeledTx) EncodeSigning(e *codec.Encoder) {
	e.PutString("repchain/labeled/v1")
	lt.Signed.Encode(e)
	e.PutVarint(int64(lt.Label))
	e.PutString(string(lt.Collector))
}

// SignLabel produces the collector envelope for s with label l.
func SignLabel(s SignedTx, l Label, collector identity.NodeID, key crypto.PrivateKey) (LabeledTx, error) {
	if !l.Valid() {
		return LabeledTx{}, fmt.Errorf("label %d: %w", l, ErrBadLabel)
	}
	lt := LabeledTx{Signed: s, Label: l, Collector: collector}
	e := codec.Wrap(make([]byte, 0, 192+len(s.Tx.Payload)))
	lt.EncodeSigning(&e)
	lt.Sig = key.Sign(e.Bytes())
	return lt, nil
}

// ID returns the inner transaction's identifier.
func (lt LabeledTx) ID() crypto.Hash { return lt.Signed.ID() }

// Validator is the paper's validate(tx) primitive: the
// application-level rule deciding whether a transaction is valid.
// Collectors call it when labeling; governors call it when screening.
type Validator interface {
	// Validate reports whether t is a valid transaction.
	Validate(t Transaction) bool
}

// ValidatorFunc adapts a function to the Validator interface.
type ValidatorFunc func(Transaction) bool

// Validate implements Validator.
func (f ValidatorFunc) Validate(t Transaction) bool { return f(t) }

var _ Validator = ValidatorFunc(nil)

// LabelFor returns the label an honest collector assigns under v.
func LabelFor(v Validator, t Transaction) Label {
	if v.Validate(t) {
		return LabelValid
	}
	return LabelInvalid
}

// StatusFor converts a validity bool into a Status.
func StatusFor(valid bool) Status {
	if valid {
		return StatusValid
	}
	return StatusInvalid
}

// Opposite returns the flipped label, used by misreporting adversary
// models.
func (l Label) Opposite() Label {
	if l == LabelValid {
		return LabelInvalid
	}
	return LabelValid
}

// Matches reports whether the label agrees with a status: +1 with
// valid, -1 with invalid.
func (l Label) Matches(s Status) bool {
	return (l == LabelValid) == (s == StatusValid)
}
