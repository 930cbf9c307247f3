package crypto

import (
	"errors"
	"fmt"
	"runtime"
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

// statsSince returns a function that reports the VerifyStats hits and
// misses counted since statsSince was called.
func statsSince() func() (hits, misses int64) {
	h0, m0 := VerifyStats()
	return func() (int64, int64) {
		h, m := VerifyStats()
		return h - h0, m - m0
	}
}

// forget drops every verdict memoised on pub's form, so that its next
// checks miss.
func forget(pub PublicKey) {
	m := &pub.v.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.cur)
	clear(m.old)
}

// memoLen returns how many verdicts pub's form holds.
func memoLen(pub PublicKey) int {
	m := &pub.v.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}

// memoHolds reports whether pub's form holds an entry for sig over msg.
func memoHolds(pub PublicKey, msg, sig []byte) bool {
	m := &pub.v.memo
	h := SumParts(msg, sig)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur[h] != nil || m.old[h] != nil
}

func TestVerifyCacheHitMissAccounting(t *testing.T) {
	pub, priv := testKey(t, 1)
	stats := statsSince()
	msg := []byte("the round's signing bytes")
	sig := priv.Sign(msg)

	if err := CachedVerify(pub, msg, sig); err != nil {
		t.Fatalf("first CachedVerify() error = %v", err)
	}
	if h, m := stats(); h != 0 || m != 1 {
		t.Fatalf("after first lookup hits=%d misses=%d, want 0/1", h, m)
	}
	for i := 0; i < 4; i++ {
		if err := CachedVerify(pub, msg, sig); err != nil {
			t.Fatalf("repeat CachedVerify() error = %v", err)
		}
	}
	if h, m := stats(); h != 4 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 4/1", h, m)
	}
}

func TestVerifyCacheCachesFailedVerdicts(t *testing.T) {
	pub, priv := testKey(t, 2)
	stats := statsSince()
	msg := []byte("message")
	sig := priv.Sign(msg)
	sig[0] ^= 0xff // corrupt: structurally fine, cryptographically bad

	for i := 0; i < 3; i++ {
		if err := CachedVerify(pub, msg, sig); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("lookup %d error = %v, want ErrBadSignature", i, err)
		}
	}
	if h, m := stats(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1 — bad verdicts must be memoised too", h, m)
	}
}

func TestVerifyCacheKeyCommitsToAllParts(t *testing.T) {
	pubA, privA := testKey(t, 3)
	pubB, _ := testKey(t, 4)
	stats := statsSince()
	msg := []byte("shared message")
	sig := privA.Sign(msg)

	if err := CachedVerify(pubA, msg, sig); err != nil {
		t.Fatal(err)
	}
	// Same msg+sig under a different key must NOT reuse A's verdict.
	if err := CachedVerify(pubB, msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-key lookup error = %v, want ErrBadSignature", err)
	}
	// Same key+sig over a different msg must not hit either.
	if err := CachedVerify(pubA, []byte("other message"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-msg lookup error = %v, want ErrBadSignature", err)
	}
	if h, m := stats(); h != 0 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3 — distinct triples must miss", h, m)
	}
}

// TestVerifyCacheStructuralErrorsBypassCache: malformed material and keys
// built as literals are checked directly, counted in neither statistic
// and memoised nowhere.
func TestVerifyCacheStructuralErrorsBypassCache(t *testing.T) {
	pub, priv := testKey(t, 5)
	stats := statsSince()
	msg := []byte("message")
	sig := priv.Sign(msg)
	if err := CachedVerify(pub, msg, []byte("short")); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short-sig error = %v, want ErrBadInput", err)
	}
	if err := CachedVerify(PublicKey{}, msg, sig); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero-key error = %v, want ErrBadInput", err)
	}
	for i := 0; i < 2; i++ {
		if err := CachedVerify(PublicKey{k: pub.k}, msg, sig); err != nil {
			t.Fatalf("literal key error = %v", err)
		}
	}
	if h, m := stats(); h != 0 || m != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/0 — these checks must bypass the memo", h, m)
	}
	if n := memoLen(pub); n != 0 {
		t.Fatalf("memo holds %d verdicts after structural failures", n)
	}
}

// TestVerifyMemoGenerationBound: a key holds at most two generations of
// memoGeneration verdicts. An entry in either generation is found, and
// one is gone after 2 × memoGeneration newer checks.
func TestVerifyMemoGenerationBound(t *testing.T) {
	pub, priv := testKey(t, 6)
	check := func(i int) {
		t.Helper()
		msg := []byte(fmt.Sprintf("msg-%d", i))
		if err := CachedVerify(pub, msg, priv.Sign(msg)); err != nil {
			t.Fatal(err)
		}
	}
	stats := statsSince()
	const g = memoGeneration
	for i := 0; i < 3*g; i++ {
		check(i)
		if l := memoLen(pub); l > 2*g {
			t.Fatalf("memo holds %d verdicts, bound %d", l, 2*g)
		}
	}
	check(3*g - 1) // the newest, in cur
	check(g)       // the oldest kept, in old
	if h, m := stats(); h != 2 || m != 3*g {
		t.Fatalf("hits=%d misses=%d, want 2/%d — both generations must be found", h, m, 3*g)
	}
	check(g - 1)
	if _, m := stats(); m != 3*g+1 {
		t.Fatalf("misses = %d, want %d — the entry must have rotated out", m, 3*g+1)
	}
}

func TestVerifyCacheCoalescesConcurrentMisses(t *testing.T) {
	pub, priv := testKey(t, 7)
	stats := statsSince()
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
			errs[g] = CachedVerify(pub, msg, sig)
		}(g)
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d error = %v", g, err)
		}
	}
	h, m := stats()
	if m != 1 {
		t.Fatalf("misses = %d, want 1 — concurrent lookups of one triple must coalesce", m)
	}
	if h != goroutines-1 {
		t.Fatalf("hits = %d, want %d", h, goroutines-1)
	}
}

// TestVerifyMemoPendingRotatesOut: a check whose entry rotates out of
// both generations while it is in flight still settles it, so the
// callers waiting on it get its verdict and count as hits; a later
// lookup of the triple finds no entry and checks it again. CI runs it
// under -race and at -cpu 1,4.
func TestVerifyMemoPendingRotatesOut(t *testing.T) {
	pub, priv := testKey(t, 10)
	msg := []byte("a check still in flight")
	sig := priv.Sign(msg)
	m := &pub.v.memo
	stats := statsSince()

	// The test is the first caller: it holds the pending entry.
	pending, _ := m.claim(SumParts(msg, sig))
	if pending == nil {
		t.Fatal("a fresh key's first lookup found an entry")
	}
	const waiters = 4
	errs := make(chan error, waiters)
	for g := 0; g < waiters; g++ {
		go func() { errs <- CachedVerify(pub, msg, sig) }()
	}
	// A waiter counts its hit before it parks on the entry.
	for h, _ := stats(); h < waiters; h, _ = stats() {
		runtime.Gosched()
	}
	for i := 0; i < 2*memoGeneration; i++ {
		other := []byte(fmt.Sprintf("rotation %d", i))
		if err := CachedVerify(pub, other, priv.Sign(other)); err != nil {
			t.Fatal(err)
		}
	}
	if memoHolds(pub, msg, sig) {
		t.Fatal("the pending entry did not rotate out")
	}
	select {
	case err := <-errs:
		t.Fatalf("a waiter returned %v before the check settled", err)
	default:
	}
	m.settle(pending, pub.Verify(msg, sig) == nil)
	for g := 0; g < waiters; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("waiter error = %v", err)
		}
	}
	if h, mi := stats(); h != waiters || mi != 1+2*memoGeneration {
		t.Fatalf("hits=%d misses=%d, want %d/%d", h, mi, waiters, 1+2*memoGeneration)
	}
	if err := CachedVerify(pub, msg, sig); err != nil {
		t.Fatal(err)
	}
	if _, mi := stats(); mi != 2+2*memoGeneration {
		t.Fatalf("misses = %d, want %d — a rotated-out triple is checked again", mi, 2+2*memoGeneration)
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
