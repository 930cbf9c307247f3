package crypto

// Batched Ed25519 verification (DESIGN.md §4f).
//
// A round presents signatures in natural batches — a drained mempool
// batch, one inbox of collector uploads, the endorsement set of a stake
// block, a governor's VRF ticket bundle. VerifyBatch classifies a whole
// batch under a single cache lock acquisition and coalesces duplicate
// (key, msg, sig) triples inside the batch; it then checks each residual
// unique miss with PublicKey.Verify on the calling goroutine, closing
// its cache entry as soon as the verdict is in, so a caller waiting on
// that entry (the other collector linked to the same providers) is
// released without waiting for the rest of the batch.
//
// Determinism: the verdict slice is per-item and exactly what
// PublicKey.Verify would return item by item, whatever else the batch
// holds; counters are atomic, and LRU order was fixed under the
// classify lock.

// BatchItem is one signature check submitted to VerifyBatch.
type BatchItem struct {
	// Pub is the claimed signer.
	Pub PublicKey
	// Msg is the signed byte string. It is only read (and hashed) during
	// the VerifyBatch call; callers may reuse the backing buffer after
	// the call returns.
	Msg []byte
	// Sig is the Ed25519 signature to check.
	Sig []byte
}

// batchSlot classifies one item during the single locked pass.
type batchSlot uint8

const (
	slotDone  batchSlot = iota // structural failure; verdict already set
	slotWait                   // cache hit: wait on the entry
	slotOwn                    // cache miss: this item verifies the entry
	slotAlias                  // duplicate of an earlier slotOwn item
)

// VerifyBatch checks every item and returns one verdict per item, in
// order. Each verdict is exactly what Verify(pub, msg, sig) would
// return: nil, ErrBadSignature, or a structural ErrBadInput error.
// Cache hits are answered without crypto work, duplicate triples within
// the batch are verified once, the rest are checked one by one, and
// fresh verdicts are inserted into the cache for later callers.
// Safe for concurrent use.
func (c *VerifyCache) VerifyBatch(items []BatchItem) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	c.batchCalls.Inc()

	kinds := make([]batchSlot, len(items))
	ents := make([]*verifyEntry, len(items))
	alias := make([]int, len(items))
	keys := make([]Hash, len(items))

	// Structural screening and key derivation happen outside the lock:
	// both mirror Verify and need no shared state.
	for i, it := range items {
		if len(it.Pub.k) != PublicKeySize || len(it.Sig) != SignatureSize {
			kinds[i] = slotDone
			errs[i] = it.Pub.Verify(it.Msg, it.Sig)
			continue
		}
		keys[i] = SumParts(it.Pub.k, it.Msg, it.Sig)
		kinds[i] = slotOwn
	}

	owned := c.classifyBatch(kinds, ents, alias, keys)

	// Check the residual unique misses in first-occurrence order.
	// Counters match the per-sig path: every unique verification is one
	// miss.
	for _, i := range owned {
		it, ent := items[i], ents[i]
		ent.ok = it.Pub.Verify(it.Msg, it.Sig) == nil
		close(ent.ready)
		errs[i] = ent.verdict()
	}
	c.misses.Add(int64(len(owned)))
	c.batchVerified.Add(int64(len(owned)))

	// Collect hits and in-batch duplicates. Both count as hits, exactly
	// as a coalesced waiter does on the per-sig path.
	for i := range items {
		switch kinds[i] {
		case slotWait:
			<-ents[i].ready
			c.hits.Inc()
			c.batchHits.Inc()
			errs[i] = ents[i].verdict()
		case slotAlias:
			c.hits.Inc()
			c.batchDeduped.Inc()
			errs[i] = errs[alias[i]]
		}
	}
	return errs
}

// classifyBatch runs the single locked classification pass: each
// structurally valid item becomes a cache hit (slotWait), a duplicate of
// an earlier miss in the same batch (slotAlias), or the owner of a fresh
// in-flight entry (slotOwn). It returns the owner indices in first-
// occurrence order.
func (c *VerifyCache) classifyBatch(kinds []batchSlot, ents []*verifyEntry, alias []int, keys []Hash) []int {
	var owned []int
	var firstOwner map[Hash]int
	c.mu.Lock()
	for i := range kinds {
		if kinds[i] == slotDone {
			continue
		}
		// In-batch duplicates are checked before the cache map: the
		// owner installed its in-flight entry during this same pass, so
		// a map hit alone cannot tell a pre-existing verdict from a
		// duplicate within the batch.
		if j, ok := firstOwner[keys[i]]; ok {
			kinds[i] = slotAlias
			alias[i] = j
			continue
		}
		if el, ok := c.entries[keys[i]]; ok {
			c.ll.MoveToFront(el)
			ents[i] = el.Value.(*verifyEntry)
			kinds[i] = slotWait
			continue
		}
		ent := &verifyEntry{key: keys[i], ready: make(chan struct{})}
		c.entries[keys[i]] = c.ll.PushFront(ent)
		ents[i] = ent
		if firstOwner == nil {
			firstOwner = make(map[Hash]int, len(kinds)-i)
		}
		firstOwner[keys[i]] = i
		owned = append(owned, i)
	}
	c.evictLocked()
	c.mu.Unlock()
	return owned
}

// BatchStats is a snapshot of the batch-path counters.
type BatchStats struct {
	// Calls counts VerifyBatch calls with at least one item.
	Calls int64
	// Hits counts batch items answered by an existing cache entry.
	Hits int64
	// Deduped counts duplicate triples coalesced within a single batch.
	Deduped int64
	// Verified counts unique signatures actually verified by batch
	// passes.
	Verified int64
}

// BatchStats returns the cumulative batch-path counters.
func (c *VerifyCache) BatchStats() BatchStats {
	return BatchStats{
		Calls:    c.batchCalls.Value(),
		Hits:     c.batchHits.Value(),
		Deduped:  c.batchDeduped.Value(),
		Verified: c.batchVerified.Value(),
	}
}

// VerifyBatch checks items through DefaultVerifyCache; see
// VerifyCache.VerifyBatch.
func VerifyBatch(items []BatchItem) []error {
	return DefaultVerifyCache.VerifyBatch(items)
}
