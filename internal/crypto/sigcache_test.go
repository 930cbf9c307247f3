package crypto

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func testKey(t *testing.T, b byte) (PublicKey, PrivateKey) {
	t.Helper()
	seed := make([]byte, SeedSize)
	seed[0] = b
	pub, priv, err := KeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestVerifyCacheHitMissAccounting(t *testing.T) {
	pub, priv := testKey(t, 1)
	c := NewVerifyCache(16)
	msg := []byte("the round's signing bytes")
	sig := priv.Sign(msg)

	if err := c.Verify(pub, msg, sig); err != nil {
		t.Fatalf("first Verify() error = %v", err)
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first lookup hits=%d misses=%d, want 0/1", h, m)
	}
	for i := 0; i < 4; i++ {
		if err := c.Verify(pub, msg, sig); err != nil {
			t.Fatalf("repeat Verify() error = %v", err)
		}
	}
	if h, m := c.Stats(); h != 4 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 4/1", h, m)
	}
}

func TestVerifyCacheCachesFailedVerdicts(t *testing.T) {
	pub, priv := testKey(t, 2)
	c := NewVerifyCache(16)
	msg := []byte("message")
	sig := priv.Sign(msg)
	sig[0] ^= 0xff // corrupt: structurally fine, cryptographically bad

	for i := 0; i < 3; i++ {
		if err := c.Verify(pub, msg, sig); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("lookup %d error = %v, want ErrBadSignature", i, err)
		}
	}
	if h, m := c.Stats(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1 — bad verdicts must be cached too", h, m)
	}
}

func TestVerifyCacheKeyCommitsToAllParts(t *testing.T) {
	pubA, privA := testKey(t, 3)
	pubB, _ := testKey(t, 4)
	c := NewVerifyCache(16)
	msg := []byte("shared message")
	sig := privA.Sign(msg)

	if err := c.Verify(pubA, msg, sig); err != nil {
		t.Fatal(err)
	}
	// Same msg+sig under a different key must NOT reuse A's verdict.
	if err := c.Verify(pubB, msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-key lookup error = %v, want ErrBadSignature", err)
	}
	// Same key+sig over a different msg must not hit either.
	if err := c.Verify(pubA, []byte("other message"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-msg lookup error = %v, want ErrBadSignature", err)
	}
	if h, m := c.Stats(); h != 0 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3 — distinct triples must miss", h, m)
	}
}

func TestVerifyCacheStructuralErrorsBypassCache(t *testing.T) {
	pub, priv := testKey(t, 5)
	c := NewVerifyCache(16)
	msg := []byte("message")
	if err := c.Verify(pub, msg, []byte("short")); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short-sig error = %v, want ErrBadInput", err)
	}
	if err := c.Verify(PublicKey{}, msg, priv.Sign(msg)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero-key error = %v, want ErrBadInput", err)
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/0 — structural failures must not touch the cache", h, m)
	}
	if c.Len() != 0 {
		t.Fatalf("Len() = %d after structural failures", c.Len())
	}
}

func TestVerifyCacheEvictsLRU(t *testing.T) {
	pub, priv := testKey(t, 6)
	const capacity = 8
	c := NewVerifyCache(capacity)
	msgAt := func(i int) []byte { return []byte(fmt.Sprintf("msg-%d", i)) }
	for i := 0; i < 3*capacity; i++ {
		if err := c.Verify(pub, msgAt(i), priv.Sign(msgAt(i))); err != nil {
			t.Fatal(err)
		}
		if c.Len() > capacity {
			t.Fatalf("Len() = %d exceeds capacity %d", c.Len(), capacity)
		}
	}
	// The most recent entry survives; the oldest was evicted.
	last := 3*capacity - 1
	if err := c.Verify(pub, msgAt(last), priv.Sign(msgAt(last))); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Stats(); h != 1 {
		t.Fatalf("hits = %d, want 1 — newest entry must still be cached", h)
	}
	if err := c.Verify(pub, msgAt(0), priv.Sign(msgAt(0))); err != nil {
		t.Fatal(err)
	}
	if _, m := c.Stats(); m != 3*capacity+1 {
		t.Fatalf("misses = %d, want %d — oldest entry must have been evicted", m, 3*capacity+1)
	}
}

func TestVerifyCacheCoalescesConcurrentMisses(t *testing.T) {
	pub, priv := testKey(t, 7)
	c := NewVerifyCache(16)
	msg := []byte("hot message every governor checks")
	sig := priv.Sign(msg)

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			errs[g] = c.Verify(pub, msg, sig)
		}(g)
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d error = %v", g, err)
		}
	}
	h, m := c.Stats()
	if m != 1 {
		t.Fatalf("misses = %d, want 1 — concurrent lookups of one triple must coalesce", m)
	}
	if h != goroutines-1 {
		t.Fatalf("hits = %d, want %d", h, goroutines-1)
	}
}

func TestVerifyCachePurge(t *testing.T) {
	pub, priv := testKey(t, 8)
	c := NewVerifyCache(16)
	msg := []byte("message")
	sig := priv.Sign(msg)
	if err := c.Verify(pub, msg, sig); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len() = %d after Purge", c.Len())
	}
	if err := c.Verify(pub, msg, sig); err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 — Purge keeps counters but drops verdicts", h, m)
	}
}

func TestCachedVerifyMatchesDirectVerify(t *testing.T) {
	pub, priv := testKey(t, 9)
	msg := []byte("public helper contract")
	sig := priv.Sign(msg)
	if err := CachedVerify(pub, msg, sig); err != nil {
		t.Fatalf("CachedVerify(valid) error = %v", err)
	}
	bad := append([]byte(nil), sig...)
	bad[5] ^= 1
	if err := CachedVerify(pub, msg, bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("CachedVerify(corrupt) error = %v, want ErrBadSignature", err)
	}
}
