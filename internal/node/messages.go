// Package node implements the three node roles of the paper's
// hierarchy — Provider, Collector, Governor — as state machines over
// the network bus. Each node consumes the bus messages addressed to it
// and produces the next phase's messages. A governor sequences its own
// processing phase behind one transition, Governor.Step; a driver (the
// core engine, the TCP runtime) paces the Collecting and Uploading
// phases of §3.1 and hands the governors messages and time.
package node

import (
	"errors"
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/tx"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrBadMessage reports an undecodable or unauthenticated
	// protocol message.
	ErrBadMessage = errors.New("node: bad message")
	// ErrFork reports a block whose serial is already occupied by a
	// different block — a safety violation, never expected under any
	// injected fault.
	ErrFork = errors.New("node: conflicting block at committed serial")
)

// ArgueMsg is the provider's argue(tx, s) invocation (§3.1): the
// disputed transaction, the serial number of the block that recorded
// it, and the provider's signature over both.
type ArgueMsg struct {
	// Signed is the disputed transaction with its original provider
	// signature.
	Signed tx.SignedTx
	// Serial is s, the block that marked the transaction invalid and
	// unchecked.
	Serial uint64
	// Sig is the provider's signature over (tx ID, serial).
	Sig []byte
}

// encodeArgueSigning appends the byte string the arguing provider signs
// — the disputed transaction ID and the block serial — to e.
func encodeArgueSigning(e *codec.Encoder, id crypto.Hash, serial uint64) {
	e.PutString("repchain/argue/v1")
	e.PutRaw(id[:])
	e.PutUint64(serial)
}

func argueSigningBytes(id crypto.Hash, serial uint64) []byte {
	e := codec.Wrap(make([]byte, 0, 64))
	encodeArgueSigning(&e, id, serial)
	return e.Bytes()
}

// NewArgue builds a signed argue message for a transaction recorded in
// block serial.
func NewArgue(signed tx.SignedTx, serial uint64, key crypto.PrivateKey) ArgueMsg {
	return ArgueMsg{
		Signed: signed,
		Serial: serial,
		Sig:    key.Sign(argueSigningBytes(signed.ID(), serial)),
	}
}

// Verify checks both the argue signature and the embedded provider
// signature against pub.
func (a ArgueMsg) Verify(pub crypto.PublicKey) error {
	if err := a.Signed.VerifyProvider(pub); err != nil {
		return fmt.Errorf("argue inner tx: %w", err)
	}
	if err := crypto.CachedVerify(pub, argueSigningBytes(a.Signed.ID(), a.Serial), a.Sig); err != nil {
		return fmt.Errorf("argue for %s: %w", a.Signed.ID().Short(), ErrBadMessage)
	}
	return nil
}

// EncodeBytes returns the wire encoding of a.
func (a ArgueMsg) EncodeBytes() []byte {
	e := codec.GetEncoder(256)
	a.Signed.Encode(e)
	e.PutUint64(a.Serial)
	e.PutBytes(a.Sig)
	out := e.AppendTo(nil)
	e.Release()
	return out
}

// DecodeArgueBytes decodes an argue message, requiring full
// consumption of b.
func DecodeArgueBytes(b []byte) (ArgueMsg, error) {
	d := codec.NewDecoder(b)
	signed, err := tx.DecodeSignedTx(d)
	if err != nil {
		return ArgueMsg{}, fmt.Errorf("argue: %w", err)
	}
	serial, err := d.Uint64()
	if err != nil {
		return ArgueMsg{}, fmt.Errorf("argue serial: %w", err)
	}
	sig, err := d.Bytes()
	if err != nil {
		return ArgueMsg{}, fmt.Errorf("argue sig: %w", err)
	}
	if err := d.Expect(); err != nil {
		return ArgueMsg{}, fmt.Errorf("argue: %w", err)
	}
	return ArgueMsg{Signed: signed, Serial: serial, Sig: sig}, nil
}
