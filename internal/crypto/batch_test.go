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
	items := make([]BatchItem, n)
	for i := range items {
		k := i % keys
		msg := []byte(fmt.Sprintf("batch message %d", i))
		items[i] = BatchItem{Pub: pubs[k], Msg: msg, Sig: privs[k].Sign(msg)}
	}
	return items, privs
}

func TestVerifyBatchAllValid(t *testing.T) {
	items, _ := batchFixture(t, 64, 4)
	c := NewVerifyCache(256)
	errs := c.VerifyBatch(items)
	if len(errs) != len(items) {
		t.Fatalf("got %d verdicts for %d items", len(errs), len(items))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: unexpected error %v", i, err)
		}
	}
	bs := c.BatchStats()
	if bs.Verified != 64 || bs.Hits != 0 || bs.Deduped != 0 {
		t.Fatalf("stats %+v, want 64 verified / 0 hits / 0 deduped", bs)
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

	// Reference: the sequential per-signature path on a fresh cache.
	ref := NewVerifyCache(1024)
	want := make([]error, n)
	for i, it := range items {
		want[i] = ref.Verify(it.Pub, it.Msg, it.Sig)
	}

	c := NewVerifyCache(1024)
	got := c.VerifyBatch(items)
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
	if bs := c.BatchStats(); bs.Verified != n {
		t.Fatalf("batch verified %d, want %d", bs.Verified, n)
	}
}

// TestVerifyBatchStructuralErrors checks that malformed keys and
// signatures fail identically to PublicKey.Verify, bypassing the cache.
func TestVerifyBatchStructuralErrors(t *testing.T) {
	items, _ := batchFixture(t, 4, 1)
	items[1].Sig = items[1].Sig[:10] // truncated signature
	items[2].Pub = PublicKey{}       // zero key
	errs := NewVerifyCache(16).VerifyBatch(items)
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
	c := NewVerifyCache(64)
	errs := c.VerifyBatch(items)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: unexpected error %v", i, err)
		}
	}
	bs := c.BatchStats()
	if bs.Verified != 8 {
		t.Fatalf("verified %d distinct triples, want 8", bs.Verified)
	}
	if bs.Deduped != 16 {
		t.Fatalf("deduped %d, want 16", bs.Deduped)
	}
	if _, misses := c.Stats(); misses != 8 {
		t.Fatalf("cache misses %d, want 8", misses)
	}
}

// TestVerifyBatchDeduplicatesFailure checks that duplicates of a bad
// triple all report the owner's error.
func TestVerifyBatchDeduplicatesFailure(t *testing.T) {
	items, _ := batchFixture(t, 2, 1)
	items[0].Sig = append([]byte(nil), items[0].Sig...)
	items[0].Sig[3] ^= 0x01
	items = append(items, items[0], items[1], items[0])
	errs := NewVerifyCache(16).VerifyBatch(items)
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

// TestVerifyBatchUsesCache pre-warms the cache through the sequential
// path and checks the batch path performs zero new verifications.
func TestVerifyBatchUsesCache(t *testing.T) {
	items, _ := batchFixture(t, 32, 4)
	c := NewVerifyCache(128)
	for _, it := range items {
		if err := c.Verify(it.Pub, it.Msg, it.Sig); err != nil {
			t.Fatalf("warm: %v", err)
		}
	}
	_, misses0 := c.Stats()
	errs := c.VerifyBatch(items)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: unexpected error %v", i, err)
		}
	}
	if _, misses1 := c.Stats(); misses1 != misses0 {
		t.Fatalf("warm batch performed %d verifications, want 0", misses1-misses0)
	}
	bs := c.BatchStats()
	if bs.Hits != 32 || bs.Verified != 0 {
		t.Fatalf("stats %+v, want 32 hits / 0 verified", bs)
	}
}

// TestVerifyBatchInsertsIntoCache checks batch-verified triples land in
// the cache so a later sequential Verify hits.
func TestVerifyBatchInsertsIntoCache(t *testing.T) {
	items, _ := batchFixture(t, 16, 2)
	c := NewVerifyCache(64)
	c.VerifyBatch(items)
	hits0, misses0 := c.Stats()
	for i, it := range items {
		if err := c.Verify(it.Pub, it.Msg, it.Sig); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	hits1, misses1 := c.Stats()
	if misses1 != misses0 || hits1-hits0 != 16 {
		t.Fatalf("re-verify after batch: %d hits %d misses, want 16 hits 0 misses",
			hits1-hits0, misses1-misses0)
	}
}

// TestVerifyBatchConcurrent hammers one cache from many goroutines with
// overlapping batches; the race detector guards the locking discipline.
func TestVerifyBatchConcurrent(t *testing.T) {
	items, _ := batchFixture(t, 64, 4)
	c := NewVerifyCache(32) // small: forces eviction alongside in-flight entries
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := items[(g*8)%32 : (g*8)%32+32]
			for r := 0; r < 4; r++ {
				for i, err := range c.VerifyBatch(sub) {
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
				before := runtime.NumGoroutine()
				c := NewVerifyCache(4 * window)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(off int) {
						defer wg.Done()
						for i, err := range c.VerifyBatch(base[off : off+window]) {
							if !errors.Is(err, want[off+i]) {
								t.Errorf("window %d item %d: verdict %v, per-signature path %v", off, i, err, want[off+i])
							}
						}
					}(g % 3 * shape.stride)
				}
				wg.Wait()
				hits, misses := c.Stats()
				if misses != int64(shape.unique) || hits+misses != goroutines*window {
					t.Fatalf("%d misses %d hits, want %d unique triples verified once out of %d lookups",
						misses, hits, shape.unique, goroutines*window)
				}
				if bs := c.BatchStats(); bs.Verified != misses {
					t.Fatalf("batch stats %+v, want %d verified", bs, misses)
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
	if errs := NewVerifyCache(16).VerifyBatch(nil); len(errs) != 0 {
		t.Fatalf("nil batch returned %d verdicts", len(errs))
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// allMissBatch returns one VerifyBatch of m signatures under the given
// number of keys that all miss: the cache is purged first, so every
// call performs m verifications.
func allMissBatch(tb testing.TB, m, keys int) func() {
	items, _ := batchFixture(tb, m, keys)
	c := NewVerifyCache(m * 2)
	return func() {
		c.Purge()
		if errs := c.VerifyBatch(items); errs[0] != nil {
			tb.Fatal(errs[0])
		}
	}
}

// allMissSequential is allMissBatch's per-signature loop.
func allMissSequential(tb testing.TB, m, keys int) func() {
	items, _ := batchFixture(tb, m, keys)
	c := NewVerifyCache(m * 2)
	return func() {
		c.Purge()
		for _, it := range items {
			if err := c.Verify(it.Pub, it.Msg, it.Sig); err != nil {
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
		{"batch/m=8", 49, allMissBatch, 8},
		{"batch/m=64", 222, allMissBatch, 64},
		{"batch/m=512", 1569, allMissBatch, 512},
		{"sequential/m=8", 24, allMissSequential, 8},
		{"sequential/m=64", 192, allMissSequential, 64},
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
// over 4 keys — a collector's batch of its linked providers'
// transactions — and over n distinct keys, and reports the cost per
// signature.
func benchmarkVerify(b *testing.B, verify func(testing.TB, int, int) func()) {
	for _, n := range []int{1, 4, 16, 64, 256} {
		for _, keys := range slices.Compact([]int{min(4, n), n}) {
			b.Run(fmt.Sprintf("n=%d/keys=%d", n, keys), func(b *testing.B) {
				run := verify(b, n, keys)
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
