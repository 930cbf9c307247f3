package node

import (
	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/tx"
)

// sigChecks is a node's signature-check scratch for one Step: the
// encoder its signing messages go into, and the verdict on each
// distinct provider batch the Step meets, so a batch that arrives in
// several frames, uploads or argues is encoded, hashed and checked once
// (DESIGN.md §4f). Every check goes through crypto.CachedVerify. reset
// empties the memo at the Step's end, so it pins no frame.
type sigChecks struct {
	enc      codec.Encoder
	batches  tx.BatchTable
	verdicts []error // indexed like batches
	last     *tx.Batch
	lastErr  error
}

// signing empties the encoder for the next signing message and returns
// it.
func (c *sigChecks) signing() *codec.Encoder {
	c.enc.Reset()
	return &c.enc
}

// verify checks sig under pub over the message last encoded.
func (c *sigChecks) verify(pub crypto.PublicKey, sig []byte) error {
	return crypto.CachedVerify(pub, c.enc.Bytes(), sig)
}

// provider checks s against pub, the key of s's provider: s must be the
// leaf its batch says it is (id is s's ID as its decoder hashed it), and
// the batch's signature, checked at the batch's first appearance in the
// Step, must hold.
func (c *sigChecks) provider(s *tx.SignedTx, id crypto.Hash, pub crypto.PublicKey) error {
	if err := s.CheckLeaf(id); err != nil {
		return err
	}
	// A run of items decoded from one batch shares its *Batch; CheckLeaf
	// refused a nil one.
	if s.Batch != c.last {
		pos, added := c.batches.Ref(s.Batch)
		if added {
			s.Batch.EncodeSigning(c.signing())
			c.verdicts = append(c.verdicts, c.verify(pub, s.Batch.Sig[:]))
		}
		c.last, c.lastErr = s.Batch, c.verdicts[pos]
	}
	return c.lastErr
}

// reset empties the memo for the next Step, keeping its memory.
func (c *sigChecks) reset() {
	c.batches.Reset()
	c.verdicts, c.last, c.lastErr = c.verdicts[:0], nil, nil
}
