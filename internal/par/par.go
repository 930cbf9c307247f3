// Package par is the one indexed fan-out every parallel stage runs on:
// the engine's per-node round steps (core.Engine.fanOut) and the
// residual misses of a signature batch (crypto.VerifyCache.VerifyBatch).
// A leaf package so both layers can import it; there is no pool to size
// or stop — helpers live for one call.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs is the goroutine budget for a fan-out of n independent items:
// one per logical CPU, or 1 — stay on the caller — when n is below
// floor, the batch size under which handing work to helpers costs more
// than it saves. The tree has two floors: crypto's parallelVerifyFloor
// (16 residual signature misses per VerifyBatch) and core's fanOutFloor
// (transactions drained per round, gating every node-step fan-out).
func Procs(n, floor int) int {
	if n < floor {
		return 1
	}
	//repchain:dettaint-ok every fan-out writes results by index and the engine replays sends in node order; VerifyBatch also chunks by this count, so which batch equations run depends on it, but its verdicts do not, up to the 2^-128-per-chunk bound of DESIGN §4f (TestVerifyBatchSplitInvariant)
	return runtime.GOMAXPROCS(0)
}

// RunIndexed executes fn(0..n-1) across at most `workers` goroutines,
// the caller among them: a call never waits on a helper being
// scheduled, and with workers ≤ 1 (or n == 1) it is the plain
// sequential loop on the calling goroutine.
//
// Error semantics are deterministic under any schedule: the returned
// error is the one produced by the lowest failing index, and once any
// fn fails no new index is claimed (mirroring the sequential early
// exit as closely as a parallel schedule can).
func RunIndexed(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
