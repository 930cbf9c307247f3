package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repchain/internal/identity"
	"repchain/internal/network"
	"repchain/internal/node"
)

// runIndexed executes fn(0..n-1) across at most `workers` goroutines.
// With workers ≤ 1 it degenerates to the plain sequential loop, so the
// single-worker engine follows exactly the code path it always has.
//
// Error semantics are deterministic under any schedule: the returned
// error is the one produced by the lowest failing index, and once any
// fn fails the pool stops claiming new indices (mirroring the
// sequential early exit as closely as a parallel schedule can).
func runIndexed(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next, failed int64
	next = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.LoadInt64(&failed) == 0 {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					atomic.StoreInt64(&failed, 1)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs fn(i, out) for every i in [0, n) across the worker pool,
// each call writing to a private sendBuffer, and then replays the
// buffers onto the bus in index order. Every parallel stage of a round
// sends this way; sendBuffer says why that keeps it byte-identical.
func (e *Engine) fanOut(n int, fn func(i int, out node.Sender) error) error {
	out := make([]sendBuffer, n)
	if err := runIndexed(e.workers, n, func(i int) error { return fn(i, &out[i]) }); err != nil {
		return err
	}
	for i := range out {
		if err := out[i].flush(e.bus); err != nil {
			return err
		}
	}
	return nil
}

// resolveWorkers turns a Config.Workers value into an effective pool
// size: non-positive means one worker per logical CPU.
func resolveWorkers(w int) int {
	if w <= 0 {
		//repchain:dettaint-ok the pool size only sets concurrency; sendBuffer flushes in node-index order, keeping the pipeline byte-identical for any worker count
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// bufferedSend is one queued Multicast call.
type bufferedSend struct {
	from    identity.NodeID
	to      []identity.NodeID
	kind    string
	payload []byte
}

// sendBuffer implements node.Sender by queueing instead of sending.
// Nodes processed off the engine goroutine write into private buffers;
// the engine then flushes the buffers onto the bus in node-index
// order, so the bus assigns the exact sequence numbers the fully
// sequential engine would have. This is what keeps the parallel
// pipeline byte-identical to the sequential one: the bus realizes
// total-order broadcast, and the replayed order is the total order.
type sendBuffer struct {
	msgs []bufferedSend
}

var _ node.Sender = (*sendBuffer)(nil)

// Multicast implements node.Sender. The recipient slice is retained,
// not copied — every caller in this package passes slices it never
// mutates (governor/collector ID lists).
func (b *sendBuffer) Multicast(from identity.NodeID, to []identity.NodeID, kind string, payload []byte) error {
	b.msgs = append(b.msgs, bufferedSend{from: from, to: to, kind: kind, payload: payload})
	return nil
}

// flush replays the buffered sends onto the bus in queue order.
func (b *sendBuffer) flush(bus *network.Bus) error {
	for _, m := range b.msgs {
		if err := bus.Multicast(m.from, m.to, m.kind, m.payload); err != nil {
			return err
		}
	}
	return nil
}
