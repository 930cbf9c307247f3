package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 100
		var hits [n]int64
		if err := RunIndexed(workers, n, func(i int) error {
			atomic.AddInt64(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestRunIndexedReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad ...int) func(int) error {
		set := make(map[int]bool)
		for _, b := range bad {
			set[b] = true
		}
		return func(i int) error {
			if set[i] {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		}
	}
	for _, workers := range []int{1, 4} {
		err := RunIndexed(workers, 50, errAt(31, 7, 44))
		if err == nil || err.Error() != "index 7 failed" {
			t.Fatalf("workers=%d error = %v, want lowest failing index 7", workers, err)
		}
	}
}

func TestRunIndexedStopsEarlyOnFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	err := RunIndexed(4, 10_000, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if got := atomic.LoadInt64(&ran); got == 10_000 {
		t.Fatal("pool kept claiming indices after a failure")
	}
}

func TestRunIndexedEmptyAndSingle(t *testing.T) {
	if err := RunIndexed(8, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatalf("n=0 error = %v", err)
	}
	ran := 0
	if err := RunIndexed(8, 1, func(i int) error { ran++; return nil }); err != nil || ran != 1 {
		t.Fatalf("n=1 ran %d times, err %v", ran, err)
	}
}

// TestRunIndexedCallerWorks pins the caller-runs property: `workers`
// counts the calling goroutine, so a call starts only workers-1
// helpers.
func TestRunIndexedCallerWorks(t *testing.T) {
	const workers = 4
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	if err := RunIndexed(workers, 64, func(int) error {
		n := int64(runtime.NumGoroutine())
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		runtime.Gosched()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if extra := int(peak.Load()) - before; extra > workers-1 {
		t.Fatalf("%d goroutines beyond the caller, want at most %d", extra, workers-1)
	}
	if got := Procs(8, 8); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Procs at the floor = %d, want GOMAXPROCS", got)
	}
	if got := Procs(7, 8); got != 1 {
		t.Fatalf("Procs below the floor = %d, want 1", got)
	}
}
