// Package par is the one indexed fan-out every parallel stage runs on:
// the engine's per-node round steps (core.Engine.fanOut) and a
// governor's screen-pass validate(tx) calls (node's validations).
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
// than it saves. The tree has two floors: core's fanOutFloor
// (transactions drained per round, gating every node-step fan-out,
// which then runs one goroutine per ready node) and node's
// validateFloor (16 validate(tx) calls in one governor's screen pass).
func Procs(n, floor int) int {
	if n < floor {
		return 1
	}
	//repchain:dettaint-ok every fan-out writes results by index and the engine replays sends in node order (TestParallelMatchesSequential, TestValidateFanOutKeepsOrder)
	return runtime.GOMAXPROCS(0)
}

// RunIndexed executes fn(0..n-1) across at most `workers` goroutines,
// the caller among them: the caller waits only for indices a helper is
// running, never on a helper being scheduled — a helper that starts
// after the caller claimed the last index finds none and exits on its
// own. With workers ≤ 1 (or n == 1) it is the plain sequential loop on
// the calling goroutine.
//
// Error semantics are deterministic under any schedule: the returned
// error is the one produced by the lowest failing index, and once any
// fn fails no new index runs — the rest are retired unrun (mirroring
// the sequential early exit as closely as a parallel schedule can).
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
	r := &run{fn: fn, n: n, first: n}
	r.done.Add(n)
	for w := 1; w < workers; w++ {
		go r.work()
	}
	r.work()
	r.done.Wait()
	return r.err
}

// run is the state one parallel RunIndexed call shares with its
// helpers, in one allocation.
type run struct {
	fn     func(i int) error
	n      int
	next   atomic.Int64
	failed atomic.Bool
	done   sync.WaitGroup // one count per index
	// mu serialises the updates of first, the lowest failing index so
	// far, and err, its error; done orders them before the caller's read.
	mu    sync.Mutex
	first int
	err   error
}

// work claims and runs indices until none is left.
func (r *run) work() {
	for i := int(r.next.Add(1)) - 1; i < r.n; i = int(r.next.Add(1)) - 1 {
		if !r.failed.Load() {
			if err := r.fn(i); err != nil {
				r.failed.Store(true)
				r.mu.Lock()
				if i < r.first {
					r.first, r.err = i, err
				}
				r.mu.Unlock()
			}
		}
		r.done.Done()
	}
}
