// Package mempool provides the ingestion queue in front of the round
// pipeline. A Pool is one FIFO in arrival order, bounded per key (the
// provider index): a provider at its cap is refused while every other
// provider still gets in, and Drain always hands out the oldest entries
// first. Because the drain order is the Add call order — never
// goroutine schedule, map iteration, or time — a pool-fed pipeline
// stays byte-identical at any worker count.
//
// The pool is deliberately policy-free: it reports overflow via ErrFull
// and exposes EvictOldest, leaving shed/evict/backpressure decisions
// (and their metrics) to the caller; admission policy on top of it
// lives in the governor (see node.GovernorConfig).
package mempool

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrFull reports an Add for a key already at the pool's per-key cap.
// Callers decide the policy: reject (backpressure) or EvictOldest and
// retry.
var ErrFull = errors.New("mempool: key at capacity")

// item is one queued entry and the key it counts against.
type item[T any] struct {
	key int
	val T
}

// Pool is a FIFO bounded per key. Not safe for concurrent use: the
// engine and governors drive their pools single-threaded, which is also
// what determinism requires.
type Pool[T any] struct {
	fifo []item[T]
	cap  int         // per-key bound; 0 = unbounded
	per  map[int]int // queued entries per key; nil when unbounded
	seq  uint64
}

// New creates a pool for the given number of keys (the provider count)
// holding at most keyCap entries per key; keyCap <= 0 means unbounded,
// the zero-configuration pool.
func New[T any](keys, keyCap int) *Pool[T] {
	p := &Pool[T]{}
	if keyCap > 0 {
		p.cap = keyCap
		p.per = make(map[int]int, max(keys, 0))
	}
	return p
}

// Cap returns the per-key capacity (0 = unbounded).
func (p *Pool[T]) Cap() int { return p.cap }

// Room returns how many more entries key can take; math.MaxInt when
// the pool is unbounded.
func (p *Pool[T]) Room(key int) int {
	if p.cap == 0 {
		return math.MaxInt
	}
	return p.cap - p.per[key]
}

// Add appends v for key and returns its arrival sequence number. A key
// at capacity fails with ErrFull and leaves the pool unchanged.
func (p *Pool[T]) Add(key int, v T) (uint64, error) {
	if p.Room(key) <= 0 {
		return 0, fmt.Errorf("key %d at %d: %w", key, p.cap, ErrFull)
	}
	p.seq++
	p.fifo = append(p.fifo, item[T]{key: key, val: v})
	if p.per != nil {
		p.per[key]++
	}
	return p.seq, nil
}

// Len returns the number of queued entries.
func (p *Pool[T]) Len() int { return len(p.fifo) }

// Drain removes and returns up to max entries, oldest first; max <= 0
// drains everything.
func (p *Pool[T]) Drain(max int) []T {
	if max <= 0 || max > len(p.fifo) {
		max = len(p.fifo)
	}
	out := make([]T, max)
	for i, it := range p.fifo[:max] {
		out[i] = it.val
		if p.per != nil {
			p.per[it.key]--
		}
	}
	p.fifo = slices.Delete(p.fifo, 0, max)
	return out
}

// EvictOldest removes and returns key's oldest entry, reporting false
// when key has none. Callers use it to implement evict-oldest overflow
// policies on top of ErrFull.
func (p *Pool[T]) EvictOldest(key int) (T, bool) {
	i := slices.IndexFunc(p.fifo, func(it item[T]) bool { return it.key == key })
	if i < 0 {
		var zero T
		return zero, false
	}
	v := p.fifo[i].val
	p.fifo = slices.Delete(p.fifo, i, i+1)
	if p.per != nil {
		p.per[key]--
	}
	return v, true
}
