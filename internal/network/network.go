// Package network implements the synchronous message substrate the
// paper assumes (§3.1): "there is a known upper bound on processing
// delays, message transmission delays, each node is equipped with a
// local physical clock". The three broadcast primitives —
// broadcast_provider, broadcast_collector, broadcast_governor — are
// all required to be atomic (total-order) broadcasts.
//
// The Bus is a deterministic in-memory network driven by a logical
// clock. Every send is stamped with a globally increasing sequence
// number; endpoints deliver messages ordered by that sequence once the
// message's delivery tick has been reached. Because all endpoints
// deliver in sequence order, the bus realizes total-order broadcast:
// any two endpoints that both deliver messages a and b deliver them in
// the same order. Per-recipient delays are bounded by MaxDelay,
// matching the paper's Δ.
//
// Ordering caveat: total order is guaranteed within one Receive drain
// and across drains separated by AdvancePastDelay (the engine's phase
// discipline). A custom DelayFunc that delays an earlier message past
// a drain that delivers a later one inverts order across those drains
// — synchronous-round protocols drain only after the Δ bound, so the
// protocol never observes this.
//
// Fault injection (drop and delay hooks) exists for tests and
// adversarial experiments; the protocol's own analysis assumes the
// synchronous fault-free network, as the paper does.
package network

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repchain/internal/identity"
)

// Message kinds used by the protocol. Kept here so every layer agrees
// on the wire vocabulary.
const (
	// KindProviderTx carries a provider's SignedTx to collectors.
	KindProviderTx = "provider.tx"
	// KindCollectorBatch carries a collector's UploadBatch — one
	// drain's labeled transactions under one signature — to governors.
	KindCollectorBatch = "collector.batch"
	// KindArgue carries a provider's argue(tx, s) to governors.
	KindArgue = "provider.argue"
	// KindVRF carries a governor's leader-election VRF evaluations.
	KindVRF = "governor.vrf"
	// KindBlock carries a proposed block from the leader.
	KindBlock = "governor.block"
	// KindStakeTx carries a stake-transfer transaction between
	// governors.
	KindStakeTx = "governor.staketx"
	// KindStakeState carries the leader's NEW_STATE proposal.
	KindStakeState = "governor.stakestate"
	// KindStakeSig carries a governor's signature over NEW_STATE back
	// to the leader.
	KindStakeSig = "governor.stakesig"
	// KindStakeBlock carries the final stake-transform block.
	KindStakeBlock = "governor.stakeblock"
	// KindEvidence carries leader-expulsion evidence.
	KindEvidence = "governor.evidence"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrUnknownEndpoint reports a send to or from an unregistered
	// node.
	ErrUnknownEndpoint = errors.New("network: unknown endpoint")
	// ErrDuplicateEndpoint reports a second registration of an ID.
	ErrDuplicateEndpoint = errors.New("network: endpoint already registered")
	// ErrClosed reports use of a closed bus.
	ErrClosed = errors.New("network: bus closed")
)

// Message is one unit of communication.
type Message struct {
	// Seq is the bus-assigned global sequence number realizing total
	// order.
	Seq uint64
	// From is the sender.
	From identity.NodeID
	// Kind classifies the payload (the Kind* constants).
	Kind string
	// Payload is the encoded protocol message.
	Payload []byte
	// SentAt is the logical tick the message was sent.
	SentAt int
	// DeliverAt is the logical tick from which the message is
	// deliverable; DeliverAt − SentAt ≤ MaxDelay.
	DeliverAt int
}

// DelayFunc decides the delivery delay (in ticks) of a message to one
// recipient. Returned values are clamped to [0, max].
type DelayFunc func(m Message, to identity.NodeID) int

// DropFunc decides whether to drop a message to one recipient.
type DropFunc func(m Message, to identity.NodeID) bool

// Stats counts bus traffic, used by the message-complexity experiment
// (E7).
type Stats struct {
	// Sent counts logical sends (one per recipient).
	Sent int64
	// Delivered counts messages actually handed to endpoints.
	Delivered int64
	// Dropped counts messages removed by the drop hook.
	Dropped int64
	// Duplicated counts extra copies injected by the duplication hook.
	Duplicated int64
	// PartitionDropped counts messages lost to an island boundary.
	PartitionDropped int64
	// DownDropped counts messages lost because the sender or the
	// recipient was marked down.
	DownDropped int64
	// SentByKind breaks Sent down per message kind.
	SentByKind map[string]int64
	// BytesByKind sums payload bytes sent per message kind (payload
	// size × recipients).
	BytesByKind map[string]int64
}

func (s *Stats) recordSend(kind string, payloadLen int) {
	s.Sent++
	if s.SentByKind == nil {
		s.SentByKind = make(map[string]int64)
		s.BytesByKind = make(map[string]int64)
	}
	s.SentByKind[kind]++
	s.BytesByKind[kind] += int64(payloadLen)
}

func (s Stats) clone() Stats {
	out := s
	out.SentByKind = make(map[string]int64, len(s.SentByKind))
	for k, v := range s.SentByKind {
		out.SentByKind[k] = v
	}
	out.BytesByKind = make(map[string]int64, len(s.BytesByKind))
	for k, v := range s.BytesByKind {
		out.BytesByKind[k] = v
	}
	return out
}

// Bus is the in-memory synchronous network. Safe for concurrent use,
// though the simulation drives it single-threaded for determinism.
type Bus struct {
	mu        sync.Mutex
	endpoints map[identity.NodeID]*Endpoint
	seq       uint64
	now       int
	maxDelay  int
	delayFn   DelayFunc
	dropFn    DropFunc
	dupFn     DupFunc
	orderFn   OrderFunc
	island    map[identity.NodeID]int
	down      map[identity.NodeID]bool
	stats     Stats
	closed    bool
}

// NewBus creates a bus with the given maximum delivery delay Δ in
// ticks. maxDelay 0 means immediate delivery.
func NewBus(maxDelay int) *Bus {
	if maxDelay < 0 {
		maxDelay = 0
	}
	return &Bus{
		endpoints: make(map[identity.NodeID]*Endpoint),
		maxDelay:  maxDelay,
	}
}

// SetDelayFunc installs a per-recipient delay hook. Returned delays
// are clamped to [0, Δ], preserving synchrony.
func (b *Bus) SetDelayFunc(f DelayFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.delayFn = f
}

// SetDropFunc installs a drop hook for fault-injection tests.
func (b *Bus) SetDropFunc(f DropFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropFn = f
}

// Register creates the endpoint for id.
func (b *Bus) Register(id identity.NodeID) (*Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if _, ok := b.endpoints[id]; ok {
		return nil, fmt.Errorf("register %q: %w", id, ErrDuplicateEndpoint)
	}
	ep := &Endpoint{id: id, bus: b}
	b.endpoints[id] = ep
	return ep, nil
}

// Now returns the current logical tick.
func (b *Bus) Now() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}

// Tick advances logical time by one and returns the new time.
func (b *Bus) Tick() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now++
	return b.now
}

// AdvancePastDelay advances logical time beyond the maximum delay so
// that every in-flight message becomes deliverable — the "wait Δ" step
// of a synchronous round.
func (b *Bus) AdvancePastDelay() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now += b.maxDelay + 1
	return b.now
}

// Stats returns a snapshot of the traffic counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats.clone()
}

// ResetStats zeroes the traffic counters (used between experiment
// phases).
func (b *Bus) ResetStats() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats = Stats{}
}

// Close shuts the bus; subsequent sends fail with ErrClosed.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

// Send delivers a message to a single recipient.
func (b *Bus) Send(from, to identity.NodeID, kind string, payload []byte) error {
	return b.multicast(from, []identity.NodeID{to}, kind, payload)
}

// Multicast delivers a message to an explicit recipient set. All
// recipients observe the same sequence number, so relative order is
// identical everywhere — the atomic broadcast the paper requires.
func (b *Bus) Multicast(from identity.NodeID, to []identity.NodeID, kind string, payload []byte) error {
	return b.multicast(from, to, kind, payload)
}

func (b *Bus) multicast(from identity.NodeID, to []identity.NodeID, kind string, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if _, ok := b.endpoints[from]; !ok {
		return fmt.Errorf("send from %q: %w", from, ErrUnknownEndpoint)
	}
	b.seq++
	m := Message{
		Seq:     b.seq,
		From:    from,
		Kind:    kind,
		Payload: payload,
		SentAt:  b.now,
	}
	for _, dst := range to {
		ep, ok := b.endpoints[dst]
		if !ok {
			return fmt.Errorf("send to %q: %w", dst, ErrUnknownEndpoint)
		}
		b.stats.recordSend(kind, len(payload))
		if b.down[from] || b.down[dst] {
			b.stats.DownDropped++
			continue
		}
		if b.partitioned(from, dst) {
			b.stats.PartitionDropped++
			continue
		}
		if b.dropFn != nil && b.dropFn(m, dst) {
			b.stats.Dropped++
			continue
		}
		delay := 0
		if b.delayFn != nil {
			delay = b.delayFn(m, dst)
		}
		if delay < 0 {
			delay = 0
		}
		if delay > b.maxDelay {
			delay = b.maxDelay
		}
		dm := m
		dm.DeliverAt = b.now + delay
		ep.enqueue(dm)
		if b.dupFn != nil {
			for extra := b.dupFn(m, dst); extra > 0; extra-- {
				b.stats.Duplicated++
				ep.enqueue(dm)
			}
		}
	}
	return nil
}

// Endpoint is one node's attachment to the bus.
type Endpoint struct {
	id    identity.NodeID
	bus   *Bus
	mu    sync.Mutex
	inbox []Message
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() identity.NodeID { return e.id }

func (e *Endpoint) enqueue(m Message) {
	e.mu.Lock()
	e.inbox = append(e.inbox, m)
	e.mu.Unlock()
}

// Receive drains every message deliverable at the current logical
// time, in global sequence order. Messages still in flight (DeliverAt
// in the future) remain queued.
func (e *Endpoint) Receive() []Message {
	now := e.bus.Now()
	e.mu.Lock()
	var due, later []Message
	for _, m := range e.inbox {
		if m.DeliverAt <= now {
			due = append(due, m)
		} else {
			later = append(later, m)
		}
	}
	e.inbox = later
	e.mu.Unlock()

	e.bus.mu.Lock()
	orderFn := e.bus.orderFn
	e.bus.stats.Delivered += int64(len(due))
	e.bus.mu.Unlock()
	if orderFn == nil {
		sort.Slice(due, func(i, j int) bool { return due[i].Seq < due[j].Seq })
		return due
	}
	type keyed struct {
		key uint64
		m   Message
	}
	ks := make([]keyed, len(due))
	for i, m := range due {
		ks[i] = keyed{key: orderFn(m, e.id), m: m}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		return ks[i].m.Seq < ks[j].m.Seq
	})
	for i, k := range ks {
		due[i] = k.m
	}
	return due
}

// Pending reports how many messages are queued (deliverable or not).
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inbox)
}
