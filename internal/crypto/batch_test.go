package crypto

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// batchFixture builds n distinct (key, msg, sig) items signed by a
// deterministic key set.
func batchFixture(t testing.TB, n, keys int) ([]BatchItem, []PrivateKey) {
	t.Helper()
	if keys <= 0 {
		keys = 1
	}
	privs := make([]PrivateKey, keys)
	pubs := make([]PublicKey, keys)
	for k := range privs {
		seed := make([]byte, SeedSize)
		seed[0] = byte(k + 1)
		seed[1] = byte(k >> 8)
		pub, priv, err := KeyFromSeed(seed)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		pubs[k], privs[k] = pub, priv
	}
	return signedItems(pubs, privs, n), privs
}

// signedItems returns n distinct items, item i signed by key i mod
// len(privs).
func signedItems(pubs []PublicKey, privs []PrivateKey, n int) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		k := i % len(privs)
		msg := []byte(fmt.Sprintf("batch message %d", i))
		items[i] = BatchItem{Pub: pubs[k], Msg: msg, Sig: privs[k].Sign(msg)}
	}
	return items
}

func TestVerifyBatchAllValid(t *testing.T) {
	items, _ := batchFixture(t, 64, 4)
	stats := statsSince()
	errs := VerifyBatch(items)
	if len(errs) != len(items) {
		t.Fatalf("got %d verdicts for %d items", len(errs), len(items))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: unexpected error %v", i, err)
		}
	}
	if hits, misses := stats(); misses != 64 || hits != 0 {
		t.Fatalf("%d misses %d hits, want 64 misses / 0 hits", misses, hits)
	}
}

// TestVerifyBatchSingleBadSig plants exactly one bad signature in a
// 512-item batch and checks that the offender is identified at the
// same index, with the same error classification, as the per-signature
// path produces.
func TestVerifyBatchSingleBadSig(t *testing.T) {
	const n, bad = 512, 137
	items, _ := batchFixture(t, n, 8)
	items[bad].Sig = append([]byte(nil), items[bad].Sig...)
	items[bad].Sig[5] ^= 0x40

	// Reference: the uncached per-signature path.
	want := make([]error, n)
	for i, it := range items {
		want[i] = it.Pub.Verify(it.Msg, it.Sig)
	}

	stats := statsSince()
	got := VerifyBatch(items)
	for i := range items {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("item %d: batch %v, sequential %v", i, got[i], want[i])
		}
		if got[i] != nil && !errors.Is(got[i], ErrBadSignature) {
			t.Fatalf("item %d: error %v, want ErrBadSignature", i, got[i])
		}
	}
	for i, err := range got {
		if (err != nil) != (i == bad) {
			t.Fatalf("item %d: error %v; only index %d should fail", i, err, bad)
		}
	}
	if _, misses := stats(); misses != n {
		t.Fatalf("batch verified %d, want %d", misses, n)
	}
}

// TestVerifyBatchStructuralErrors checks that malformed keys and
// signatures fail identically to PublicKey.Verify, bypassing the memo.
func TestVerifyBatchStructuralErrors(t *testing.T) {
	items, _ := batchFixture(t, 4, 1)
	items[1].Sig = items[1].Sig[:10] // truncated signature
	items[2].Pub = PublicKey{}       // zero key
	errs := VerifyBatch(items)
	for _, i := range []int{1, 2} {
		if errs[i] == nil || !errors.Is(errs[i], ErrBadInput) {
			t.Fatalf("item %d: error %v, want ErrBadInput", i, errs[i])
		}
	}
	for _, i := range []int{0, 3} {
		if errs[i] != nil {
			t.Fatalf("item %d: unexpected error %v", i, errs[i])
		}
	}
}

// TestVerifyBatchDeduplicates feeds duplicate (key, msg, sig) triples
// and checks that the duplicates coalesce onto one verification.
func TestVerifyBatchDeduplicates(t *testing.T) {
	base, _ := batchFixture(t, 8, 2)
	items := make([]BatchItem, 0, 24)
	for r := 0; r < 3; r++ {
		items = append(items, base...)
	}
	stats := statsSince()
	errs := VerifyBatch(items)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: unexpected error %v", i, err)
		}
	}
	if hits, misses := stats(); misses != 8 || hits != 16 {
		t.Fatalf("%d misses %d hits, want 8 distinct triples verified and 16 duplicates hit", misses, hits)
	}
}

// TestVerifyBatchDeduplicatesFailure checks that duplicates of a bad
// triple all report the owner's error.
func TestVerifyBatchDeduplicatesFailure(t *testing.T) {
	items, _ := batchFixture(t, 2, 1)
	items[0].Sig = append([]byte(nil), items[0].Sig...)
	items[0].Sig[3] ^= 0x01
	items = append(items, items[0], items[1], items[0])
	errs := VerifyBatch(items)
	for _, i := range []int{0, 2, 4} {
		if !errors.Is(errs[i], ErrBadSignature) {
			t.Fatalf("item %d: error %v, want ErrBadSignature", i, errs[i])
		}
	}
	for _, i := range []int{1, 3} {
		if errs[i] != nil {
			t.Fatalf("item %d: unexpected error %v", i, errs[i])
		}
	}
}

// TestVerifyBatchUsesCache pre-warms the keys' memos through the
// sequential path and checks the batch path performs zero new
// verifications.
func TestVerifyBatchUsesCache(t *testing.T) {
	items, _ := batchFixture(t, 32, 4)
	for _, it := range items {
		if err := CachedVerify(it.Pub, it.Msg, it.Sig); err != nil {
			t.Fatalf("warm: %v", err)
		}
	}
	stats := statsSince()
	errs := VerifyBatch(items)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: unexpected error %v", i, err)
		}
	}
	if hits, misses := stats(); misses != 0 || hits != 32 {
		t.Fatalf("warm batch: %d verifications and %d hits, want 0 and 32", misses, hits)
	}
}

// TestVerifyBatchInsertsIntoCache checks batch-verified triples land in
// the keys' memos so a later sequential CachedVerify hits.
func TestVerifyBatchInsertsIntoCache(t *testing.T) {
	items, _ := batchFixture(t, 16, 2)
	VerifyBatch(items)
	stats := statsSince()
	for i, it := range items {
		if err := CachedVerify(it.Pub, it.Msg, it.Sig); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if hits, misses := stats(); misses != 0 || hits != 16 {
		t.Fatalf("re-verify after batch: %d hits %d misses, want 16 hits 0 misses", hits, misses)
	}
}

// TestVerifyBatchConcurrent hammers one key's memo from many goroutines
// with overlapping batches over more triples than one generation holds,
// so entries rotate out while others are in flight; the race detector
// guards the locking discipline.
func TestVerifyBatchConcurrent(t *testing.T) {
	const window, stride = 320, 40
	items, _ := batchFixture(t, memoGeneration+128, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := items[g*stride : g*stride+window]
			for r := 0; r < 2; r++ {
				for i, err := range VerifyBatch(sub) {
					if err != nil {
						t.Errorf("goroutine %d item %d: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifyBatchOverlappingBatches submits fully-overlapping batches
// (the shape two collectors linked to the same providers produce) and
// half-overlapping ones to one cache from more goroutines than there
// are processors, at GOMAXPROCS 1 and 4. Every verdict must equal the
// per-signature path's, item by item — one bad signature lands on the
// right index of every batch that holds it — and each unique triple is
// verified exactly once. With every processor taken by a goroutine
// that only waits on another batch's in-flight entries, the test
// finishing at all is the caller-runs property: an owner never depends
// on a helper being scheduled. No helper outlives its call.
func TestVerifyBatchOverlappingBatches(t *testing.T) {
	const window, bad, goroutines = 128, 100, 8
	shapes := []struct {
		name   string
		stride int // offset between consecutive goroutines' windows
		unique int
	}{
		{"full-overlap", 0, window},
		{"half-overlap", window / 2, 2 * window},
	}
	for _, procs := range []int{1, 4} {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, shape.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				// Fresh keys: their memos start empty.
				base, _ := batchFixture(t, 2*window, 8)
				base[bad].Sig = append([]byte(nil), base[bad].Sig...)
				base[bad].Sig[3] ^= 0x40
				want := make([]error, len(base))
				for i, it := range base {
					want[i] = it.Pub.Verify(it.Msg, it.Sig)
				}
				if !errors.Is(want[bad], ErrBadSignature) {
					t.Fatalf("planted signature verdict = %v", want[bad])
				}
				before := runtime.NumGoroutine()
				stats := statsSince()
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(off int) {
						defer wg.Done()
						for i, err := range VerifyBatch(base[off : off+window]) {
							if !errors.Is(err, want[off+i]) {
								t.Errorf("window %d item %d: verdict %v, per-signature path %v", off, i, err, want[off+i])
							}
						}
					}(g % 3 * shape.stride)
				}
				wg.Wait()
				hits, misses := stats()
				if misses != int64(shape.unique) || hits+misses != goroutines*window {
					t.Fatalf("%d misses %d hits, want %d unique triples verified once out of %d lookups",
						misses, hits, shape.unique, goroutines*window)
				}
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines outlive their VerifyBatch calls", runtime.NumGoroutine()-before)
					}
				}
			})
		}
	}
}

func TestVerifyBatchEmpty(t *testing.T) {
	if errs := VerifyBatch(nil); len(errs) != 0 {
		t.Fatalf("nil batch returned %d verdicts", len(errs))
	}
}

// TestVerifyBatchAccounting: a VerifyBatch over n items holding k
// distinct well-formed triples adds exactly k misses and n−k hits, on
// one goroutine and summed over two goroutines whose batches overlap —
// a triple one of them is still checking counts as the other's hit.
// Malformed items touch neither count.
func TestVerifyBatchAccounting(t *testing.T) {
	// fixture returns 48 items under fresh keys, and a batch of items
	// 0–31 with 0–7 repeated and a malformed item.
	fixture := func(t *testing.T) (base, items []BatchItem) {
		base, _ = batchFixture(t, 48, 4)
		items = append(slices.Clone(base[:32]), base[:8]...)
		return base, append(items, BatchItem{Pub: base[0].Pub, Msg: base[0].Msg, Sig: base[0].Sig[:9]})
	}
	t.Run("one goroutine", func(t *testing.T) {
		_, items := fixture(t)
		stats := statsSince()
		VerifyBatch(items)
		if hits, misses := stats(); misses != 32 || hits != 8 {
			t.Fatalf("%d misses %d hits, want 32 and 8", misses, hits)
		}
	})
	t.Run("two overlapping goroutines", func(t *testing.T) {
		base, items := fixture(t)
		stats := statsSince()
		var wg sync.WaitGroup
		for _, batch := range [][]BatchItem{items, base[16:48]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				VerifyBatch(batch)
			}()
		}
		wg.Wait()
		// 40 + 32 well-formed lookups of 48 distinct triples.
		if hits, misses := stats(); misses != 48 || hits != 40+32-48 {
			t.Fatalf("%d misses %d hits, want 48 and %d", misses, hits, 40+32-48)
		}
	})
}

// forgetAll clears the memos of items' keys.
func forgetAll(items []BatchItem) {
	for _, it := range items {
		forget(it.Pub)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// allMissBatch returns one VerifyBatch of m signatures under the given
// number of keys that all miss: the keys' memos are cleared first, so
// every call performs m verifications.
func allMissBatch(tb testing.TB, m, keys int) func() {
	items, _ := batchFixture(tb, m, keys)
	return func() {
		forgetAll(items)
		if errs := VerifyBatch(items); errs[0] != nil {
			tb.Fatal(errs[0])
		}
	}
}

// allMissSequential is allMissBatch's per-signature loop.
func allMissSequential(tb testing.TB, m, keys int) func() {
	items, _ := batchFixture(tb, m, keys)
	return func() {
		forgetAll(items)
		for _, it := range items {
			if err := CachedVerify(it.Pub, it.Msg, it.Sig); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestVerifyAllocBudgets pins the allocations of the batch path (the
// per-round shape: m uploads drained at once, over 8 keys) and of the
// sequential loop. Each budget is the count measured when it was last
// pinned ×1.10 + 8; re-measure with -v.
func TestVerifyAllocBudgets(t *testing.T) {
	for _, tc := range []struct {
		name     string
		measured float64
		verify   func(testing.TB, int, int) func()
		m        int
	}{
		{"batch/m=8", 9, allMissBatch, 8},
		{"batch/m=64", 65, allMissBatch, 64},
		{"batch/m=512", 513, allMissBatch, 512},
		{"sequential/m=8", 8, allMissSequential, 8},
		{"sequential/m=64", 64, allMissSequential, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("sync.Pool drops items at random under -race")
			}
			got := testing.AllocsPerRun(10, tc.verify(t, tc.m, 8))
			budget := tc.measured*1.10 + 8
			if got > budget {
				t.Fatalf("%v allocs per call, budget %v", got, budget)
			}
			t.Logf("%v allocs per call (budget %v)", got, budget)
		})
	}
}

// benchmarkVerify times verify over all-miss batches of n signatures
// over one key, over 4 keys — a collector's batch of its linked
// providers' transactions — and over n distinct keys, and reports the
// cost per signature.
func benchmarkVerify(b *testing.B, verify func(testing.TB, int, int) func()) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		for _, keys := range slices.Compact([]int{1, min(4, n), n}) {
			b.Run(fmt.Sprintf("n=%d/keys=%d", n, keys), func(b *testing.B) {
				run := verify(b, n, keys)
				run() // builds the keys' comb tables, as a roster's warm-up does
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
			})
		}
	}
}

// BenchmarkVerifyBatch times all-miss VerifyBatch calls.
func BenchmarkVerifyBatch(b *testing.B) { benchmarkVerify(b, allMissBatch) }

// BenchmarkVerifySequential is the per-signature loop over the same
// all-miss shapes.
func BenchmarkVerifySequential(b *testing.B) { benchmarkVerify(b, allMissSequential) }
