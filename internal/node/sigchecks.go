package node

import (
	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/tx"
)

// sigChecks gathers the signature checks of one drain for a single
// crypto.VerifyBatch call. Signing messages go back to back into one
// pooled arena; only (start, end) spans are kept while it may still
// reallocate, and the messages are sliced out at verify (DESIGN.md
// §4f). A node keeps one: begin readies it for a drain, verify empties
// it.
type sigChecks struct {
	arena *codec.Encoder
	items []crypto.BatchItem
	spans [][2]int
	// batches numbers the drain's distinct provider batches, so each is
	// checked once whichever frames, uploads or argues carry it;
	// batchItem maps a table position to its item; lastItem is last's.
	batches   tx.BatchTable
	batchItem []int
	last      *tx.Batch
	lastItem  int
}

// begin readies c for a drain whose signing messages take about
// sizeHint bytes.
func (c *sigChecks) begin(sizeHint int) {
	c.arena = codec.GetEncoder(sizeHint)
}

// add records a check of sig under pub over the arena bytes from start
// to its end, and returns the check's index.
func (c *sigChecks) add(pub crypto.PublicKey, start int, sig []byte) int {
	c.items = append(c.items, crypto.BatchItem{Pub: pub, Sig: sig})
	c.spans = append(c.spans, [2]int{start, c.arena.Len()})
	return len(c.items) - 1
}

// provider returns the index of the check of s's provider batch under
// pub, the key of s's provider, adding it at the batch's first
// appearance; the index is -1 when s is not the leaf its batch says it
// is. id is s's ID as its decoder hashed it.
func (c *sigChecks) provider(s *tx.SignedTx, id crypto.Hash, pub crypto.PublicKey) int {
	if s.CheckLeaf(id) != nil {
		return -1
	}
	// A run of items decoded from one batch shares its *Batch.
	if s.Batch != c.last {
		pos, added := c.batches.Ref(s.Batch)
		if added {
			start := c.arena.Len()
			s.Batch.EncodeSigning(c.arena)
			c.batchItem = append(c.batchItem, c.add(pub, start, s.Batch.Sig[:]))
		}
		c.last, c.lastItem = s.Batch, c.batchItem[pos]
	}
	return c.lastItem
}

// verify runs every check in one batch, releases the arena and empties
// c for the next drain, keeping its slices; the verdicts are indexed
// like the checks.
func (c *sigChecks) verify() []error {
	buf := c.arena.Bytes()
	for k := range c.items {
		c.items[k].Msg = buf[c.spans[k][0]:c.spans[k][1]]
	}
	// The batch hashes every message while classifying, so the arena
	// can go back to the pool right after.
	verdicts := crypto.VerifyBatch(c.items)
	c.arena.Release()
	// Emptied, c pins no frame's signature or batch past the drain.
	clear(c.items)
	c.arena, c.items, c.spans, c.batchItem, c.last = nil, c.items[:0], c.spans[:0], c.batchItem[:0], nil
	c.batches.Reset()
	return verdicts
}
