package crypto

import (
	"container/list"
	"sync"

	"repchain/internal/metrics"
)

// VerifyCache memoizes Ed25519 verification verdicts keyed by
// H(pubkey ‖ msg ‖ sig). In a round every governor independently
// re-verifies the same collector uploads, provider argues, VRF tickets,
// and block proposals, so m governors pay m× for identical crypto; the
// cache collapses those to one verification shared by all.
//
// Properties:
//
//   - Sound: the key commits to the exact (key, message, signature)
//     triple with length-prefixed hashing, so a cached verdict — pass
//     or fail — is exactly what a fresh verification would return.
//     Structural errors (wrong key or signature length) are cheap and
//     never cached.
//   - Bounded: entries are kept in an LRU list capped at the configured
//     capacity.
//   - Coalescing: when several governors miss on the same triple
//     concurrently, only the first performs the verification; the rest
//     block until the verdict is published and count as hits, so the
//     crypto work is paid exactly once even under full parallelism.
//   - Accounted: hit/miss counters are metrics.Counter values exposed
//     via Stats.
type VerifyCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List             // guarded by mu; front = most recently used
	entries map[Hash]*list.Element // guarded by mu

	hits   metrics.Counter
	misses metrics.Counter

	// Batch-path accounting (DESIGN.md §4f), exposed via BatchStats as
	// the sigcache.batch_* gauges (Calls is not published).
	batchCalls    metrics.Counter
	batchHits     metrics.Counter
	batchDeduped  metrics.Counter
	batchVerified metrics.Counter
}

// verifyEntry is one cached verdict. ready is closed once ok holds the
// verdict; waiters treat a pending entry like a hit because they do no
// crypto work themselves.
type verifyEntry struct {
	key   Hash
	ok    bool
	ready chan struct{}
}

// DefaultVerifyCacheSize is the entry capacity of caches built with a
// non-positive capacity, sized to hold several rounds of a busy chain.
const DefaultVerifyCacheSize = 1 << 13

// NewVerifyCache creates a cache bounded to capacity entries; a
// non-positive capacity uses DefaultVerifyCacheSize.
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheSize
	}
	return &VerifyCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[Hash]*list.Element, capacity),
	}
}

// Verify checks sig over msg against pub with the same contract as
// PublicKey.Verify, consulting the cache first. Safe for concurrent
// use.
func (c *VerifyCache) Verify(pub PublicKey, msg, sig []byte) error {
	// Structural failures mirror PublicKey.Verify and skip the cache:
	// they cost nothing to recompute.
	if len(pub.k) != PublicKeySize || len(sig) != SignatureSize {
		return pub.Verify(msg, sig)
	}
	key := SumParts(pub.k, msg, sig)

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*verifyEntry)
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		<-ent.ready // immediate when already filled
		c.hits.Inc()
		return ent.verdict()
	}
	ent := &verifyEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.ll.PushFront(ent)
	c.evictLocked()
	c.mu.Unlock()

	ent.ok = pub.Verify(msg, sig) == nil
	close(ent.ready)
	c.misses.Inc()
	return ent.verdict()
}

func (e *verifyEntry) verdict() error {
	if e.ok {
		return nil
	}
	return ErrBadSignature
}

// evictLocked trims the LRU tail down to capacity, skipping entries
// whose verification is still in flight (they are filled and closed by
// their owner; evicting them would strand waiters).
func (c *VerifyCache) evictLocked() {
	for el := c.ll.Back(); el != nil && c.ll.Len() > c.cap; {
		prev := el.Prev()
		ent := el.Value.(*verifyEntry)
		select {
		case <-ent.ready:
			c.ll.Remove(el)
			delete(c.entries, ent.key)
		default: // pending: leave in place
		}
		el = prev
	}
}

// Stats returns the cumulative hit and miss counts. A coalesced waiter
// counts as a hit: it performed no verification of its own.
func (c *VerifyCache) Stats() (hits, misses int64) {
	return c.hits.Value(), c.misses.Value()
}

// Len returns the current number of cached verdicts.
func (c *VerifyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge empties the cache without resetting the counters.
func (c *VerifyCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Drop only filled entries; in-flight ones still have waiters.
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*verifyEntry)
		select {
		case <-ent.ready:
			c.ll.Remove(el)
			delete(c.entries, ent.key)
		default:
		}
		el = next
	}
}

// DefaultVerifyCache is the process-wide cache shared by every
// governor (and any other verifier) in the process, the dedup store
// behind CachedVerify.
var DefaultVerifyCache = NewVerifyCache(DefaultVerifyCacheSize)

// CachedVerify verifies sig over msg against pub through
// DefaultVerifyCache. Protocol verify paths that are repeated
// identically across replicas (collector uploads, argues, VRF tickets,
// block and stake signatures) route through it so the m-fold redundant
// verification cost of a round is paid once.
func CachedVerify(pub PublicKey, msg, sig []byte) error {
	return DefaultVerifyCache.Verify(pub, msg, sig)
}
