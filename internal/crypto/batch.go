package crypto

// Batched Ed25519 verification (DESIGN.md §4f).
//
// A round presents signatures in natural batches — a drained mempool
// batch, one inbox of collector uploads, the endorsement set of a stake
// block, a governor's VRF ticket bundle. VerifyBatch classifies a whole
// batch under a single cache lock acquisition, coalesces duplicate
// (key, msg, sig) triples inside the batch, and splits the residual
// unique misses into one contiguous chunk per core. Each chunk is
// checked with one cofactored equation over random-looking linear
// coefficients zᵢ (128 bits each):
//
//	[8]( −(Σ zᵢsᵢ)·B + Σ zᵢ·Rᵢ + Σ_A (Σ_{i:Aᵢ=A} zᵢkᵢ)·A ) = 0
//
// computed as one multi-scalar multiplication in which each distinct
// public key is one term — a collector's batch holds its few linked
// providers' transactions. The zᵢ are SHA-512 of the chunk's own keys,
// signatures and length-prefixed messages plus the index, so verdicts
// use no randomness source and replay bit for bit.
//
// Determinism: the verdict slice is per-item and exactly what
// PublicKey.Verify would return item by item. A chunk in which every
// signature holds passes the equation; a chunk holding a failing one
// passes it with probability at most 2⁻¹²⁸, and otherwise each of its
// signatures is re-checked alone, so a bad signature is attributed to
// its own index. Verify and the equation apply the same cofactored rule
// (verify.go), so no verdict depends on which chunk, batch or
// GOMAXPROCS a signature lands in. Helpers write verdicts by index,
// counters are atomic, and LRU order was fixed under the classify lock.

import (
	"crypto/sha512"
	"encoding/binary"

	"repchain/internal/crypto/internal/edwards25519"
	"repchain/internal/par"
)

// parallelVerifyFloor is the residual-miss count below which a batch
// stays on the calling goroutine as one chunk: splitting fewer than 16
// signatures costs more in hand-off and in per-chunk fixed work (the
// basepoint and key terms, one doubling chain) than it saves.
const parallelVerifyFloor = 16

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
// the batch are verified once, the rest are checked a chunk at a time,
// and fresh verdicts are inserted into the cache for later callers.
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

	// Verify the residual unique misses as one chunk per goroutine, up
	// to GOMAXPROCS of them — this one included, so waiters on these
	// entries (the other collector linked to the same providers) are
	// released ~1/P as late. Counters match the per-sig path: every
	// unique verification is one miss.
	ok := make([]bool, len(owned))
	chunks := min(par.Procs(len(owned), parallelVerifyFloor), len(owned))
	_ = par.RunIndexed(chunks, chunks, func(ch int) error { // fn never fails
		lo, hi := ch*len(owned)/chunks, (ch+1)*len(owned)/chunks
		verifyChunk(items, owned[lo:hi], ok[lo:hi])
		for k := lo; k < hi; k++ {
			ent := ents[owned[k]]
			ent.ok = ok[k]
			close(ent.ready)
			errs[owned[k]] = ent.verdict()
		}
		return nil
	})
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

// chunkKey is one distinct public key of a chunk: its point and the
// coefficient Σ zᵢkᵢ of its term.
type chunkKey struct {
	point edwards25519.Point
	sum   edwards25519.Scalar
	ok    bool // the key decoded
	used  bool // some signature under it reached the equation
}

// verifyChunk checks the signatures items[idx[0]], items[idx[1]], … —
// each with a PublicKeySize key and a SignatureSize signature — as one
// batch and writes each verdict to ok[k]: exactly PublicKey.Verify's,
// whatever else the chunk holds. Signatures whose key, S or R fail to
// parse fail on their own; the rest go into the batch equation, and if
// it does not hold they are re-checked one by one.
func verifyChunk(items []BatchItem, idx []int, ok []bool) {
	checks := make([]sigCheck, len(idx))
	keyOf := make([]int, len(idx))
	live := make([]int, 0, len(idx))
	var keys []chunkKey
	keyIndex := make(map[[PublicKeySize]byte]int) // lookup only; keys holds first-occurrence order
	for k, i := range idx {
		it := items[i]
		j, seen := keyIndex[[PublicKeySize]byte(it.Pub.k)]
		if !seen {
			j = len(keys)
			keyIndex[[PublicKeySize]byte(it.Pub.k)] = j
			keys = append(keys, chunkKey{})
			_, err := keys[j].point.SetBytes(it.Pub.k)
			keys[j].ok = err == nil
		}
		keyOf[k] = j
		if ok[k] = keys[j].ok && checks[k].parse(it.Pub.k, it.Msg, it.Sig); ok[k] {
			keys[j].used = true
			live = append(live, k)
		}
	}
	if len(live) > 1 && batchHolds(items, idx, live, checks, keyOf, keys) {
		return
	}
	for _, k := range live {
		ok[k] = checks[k].holds(&keys[keyOf[k]].point)
	}
}

// batchHolds evaluates the chunk equation over the live signatures:
// [8](−(Σ zᵢsᵢ)·B + Σ zᵢ·Rᵢ + Σ_A (Σ_{i:Aᵢ=A} zᵢkᵢ)·A) = 0.
func batchHolds(items []BatchItem, idx, live []int, checks []sigCheck, keyOf []int, keys []chunkKey) bool {
	z := batchCoefficients(items, idx, live)
	scalars := make([]edwards25519.Scalar, len(live), len(live)+len(keys))
	points := make([]*edwards25519.Point, len(live), len(live)+len(keys))
	var bSum edwards25519.Scalar
	for n, k := range live {
		c, key := &checks[k], &keys[keyOf[k]]
		scalars[n], points[n] = z[n], &c.r
		bSum.MultiplyAdd(&z[n], &c.s, &bSum)
		key.sum.MultiplyAdd(&z[n], &c.k, &key.sum)
	}
	for j := range keys {
		if keys[j].used {
			scalars = append(scalars, keys[j].sum)
			points = append(points, &keys[j].point)
		}
	}
	var p edwards25519.Point
	p.VarTimeMultiScalarBaseMult(bSum.Negate(&bSum), scalars, points)
	return p.MultByCofactor(&p).Equal(edwards25519.NewIdentityPoint()) == 1
}

// batchDomain separates the coefficient transcript from every other
// SHA-512 input in the protocol.
const batchDomain = "repchain/batch-verify/v1\x00"

// batchCoefficients derives the chunk's 128-bit coefficients from the
// chunk itself: seed = SHA-512(domain ‖ each live item's key, signature,
// message length and message), zₙ = the low 16 bytes of
// SHA-512(seed ‖ n). Every input an attacker controls is in the seed,
// so a forged signature cannot be chosen after its coefficient.
func batchCoefficients(items []BatchItem, idx, live []int) []edwards25519.Scalar {
	h := sha512.New()
	h.Write([]byte(batchDomain))
	var word [8]byte
	for _, k := range live {
		it := items[idx[k]]
		h.Write(it.Pub.k)
		h.Write(it.Sig)
		binary.LittleEndian.PutUint64(word[:], uint64(len(it.Msg)))
		h.Write(word[:])
		h.Write(it.Msg)
	}
	var seed, digest [sha512.Size]byte
	h.Sum(seed[:0])
	z := make([]edwards25519.Scalar, len(live))
	for n := range z {
		h.Reset()
		h.Write(seed[:])
		binary.LittleEndian.PutUint64(word[:], uint64(n))
		h.Write(word[:])
		h.Sum(digest[:0])
		var wide [32]byte
		copy(wide[:16], digest[:16])
		// Below 2^128 < ℓ, so the encoding is canonical and cannot fail.
		_, _ = z[n].SetCanonicalBytes(wide[:])
	}
	return z
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
