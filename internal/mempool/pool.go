// Package mempool provides the sharded ingestion queue in front of the
// round pipeline. A Pool partitions entries by a caller-supplied key
// (provider index) into a fixed number of shards, each a bounded FIFO,
// and drains them in strict (shard, seq) order: shard 0's entries in
// arrival order, then shard 1's, and so on. Because the drain order is
// a pure function of the Add call sequence — never of goroutine
// schedule, map iteration, or time — a pool-fed pipeline stays
// byte-identical at any worker count.
//
// The pool is deliberately policy-free: it reports overflow via
// ErrShardFull and exposes EvictOldest, leaving shed/evict/backpressure
// decisions (and their metrics) to the caller. RepChain-sharding
// (arXiv:1901.05741) motivates the partitioning; admission policy on
// top of it lives in the governor (see node.GovernorConfig).
package mempool

import (
	"errors"
	"fmt"
	"math"
)

// ErrShardFull reports an Add to a bounded shard at capacity. Callers
// decide the policy: reject (backpressure) or EvictOldest and retry.
var ErrShardFull = errors.New("mempool: shard full")

// item is one queued entry: the value plus its pool-wide arrival
// sequence number, which makes drain order auditable in tests.
type item[T any] struct {
	seq uint64
	val T
}

// Pool is a sharded FIFO. Not safe for concurrent use: the engine and
// governors drive their pools single-threaded, which is also what
// determinism requires.
type Pool[T any] struct {
	shards [][]item[T]
	cap    int // per-shard bound; 0 = unbounded
	seq    uint64
	length int
}

// New creates a pool with the given shard count and per-shard capacity
// (0 = unbounded). Shard counts below 1 are treated as 1, so the
// zero-configuration pool degenerates to a single unbounded FIFO —
// exactly the pre-mempool ingestion behavior.
func New[T any](shards, shardCap int) *Pool[T] {
	if shards < 1 {
		shards = 1
	}
	if shardCap < 0 {
		shardCap = 0
	}
	return &Pool[T]{shards: make([][]item[T], shards), cap: shardCap}
}

// Shards returns the shard count.
func (p *Pool[T]) Shards() int { return len(p.shards) }

// Cap returns the per-shard capacity (0 = unbounded).
func (p *Pool[T]) Cap() int { return p.cap }

// shardOf maps a key to its shard, tolerating negative keys.
func (p *Pool[T]) shardOf(key int) int {
	n := len(p.shards)
	return ((key % n) + n) % n
}

// Room returns how many more entries key's shard can take;
// math.MaxInt when shards are unbounded.
func (p *Pool[T]) Room(key int) int {
	if p.cap == 0 {
		return math.MaxInt
	}
	return p.cap - len(p.shards[p.shardOf(key)])
}

// Add appends v to key's shard and returns its arrival sequence
// number. A bounded shard at capacity fails with ErrShardFull and
// leaves the pool unchanged.
func (p *Pool[T]) Add(key int, v T) (uint64, error) {
	s := p.shardOf(key)
	if p.cap != 0 && len(p.shards[s]) >= p.cap {
		return 0, fmt.Errorf("shard %d at %d: %w", s, p.cap, ErrShardFull)
	}
	p.seq++
	p.shards[s] = append(p.shards[s], item[T]{seq: p.seq, val: v})
	p.length++
	return p.seq, nil
}

// Len returns the total queued entries across all shards.
func (p *Pool[T]) Len() int { return p.length }

// ShardLen returns the queue depth of key's shard.
func (p *Pool[T]) ShardLen(key int) int { return len(p.shards[p.shardOf(key)]) }

// Drain removes and returns up to max entries in (shard, seq) order —
// all of shard 0's backlog (oldest first), then shard 1's, and so on.
// max <= 0 drains everything. The strict order favors determinism over
// cross-shard fairness; a capped drain leaves later shards queued for
// the next call, which rotates naturally as earlier shards empty.
func (p *Pool[T]) Drain(max int) []T {
	if max <= 0 || max > p.length {
		max = p.length
	}
	out := make([]T, 0, max)
	for s := range p.shards {
		if len(out) == max {
			break
		}
		take := max - len(out)
		if take > len(p.shards[s]) {
			take = len(p.shards[s])
		}
		for _, it := range p.shards[s][:take] {
			out = append(out, it.val)
		}
		rest := p.shards[s][take:]
		if len(rest) == 0 {
			p.shards[s] = nil
		} else {
			p.shards[s] = append([]item[T](nil), rest...)
		}
	}
	p.length -= len(out)
	return out
}

// EvictOldest removes and returns the oldest entry of key's shard,
// reporting false when the shard is empty. Callers use it to implement
// evict-oldest overflow policies on top of ErrShardFull.
func (p *Pool[T]) EvictOldest(key int) (T, bool) {
	s := p.shardOf(key)
	var zero T
	if len(p.shards[s]) == 0 {
		return zero, false
	}
	v := p.shards[s][0].val
	rest := p.shards[s][1:]
	if len(rest) == 0 {
		p.shards[s] = nil
	} else {
		p.shards[s] = append([]item[T](nil), rest...)
	}
	p.length--
	return v, true
}
