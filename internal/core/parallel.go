package core

import (
	"repchain/internal/identity"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/par"
)

// fanOutFloor is the drained-transaction count below which a round's
// node steps all run on the engine goroutine: under it a step is too
// small to pay for the hand-off. On a 2-core Xeon (8 providers, m = 3,
// in memory) inline rounds took the same wall time as fanned-out ones
// up to 64 tx/round and 20–25 % less CPU; from 96 up the fan-out won
// every run, at 96 and 128 by more than the interquartile spread of
// the inline runs. DESIGN §4a has the sweep.
const fanOutFloor = 96

// workers is the goroutine budget of this round's fan-outs: one per
// logical CPU once the round drained fanOutFloor transactions, else 1.
// It is read from the drain, so a shard.Cluster committee decides from
// its own traffic.
func (e *Engine) workers() int { return par.Procs(e.drained, fanOutFloor) }

// fanOut runs fn(i, out) for every i in [0, n) across e.workers()
// goroutines, each call writing to a private sendBuffer, and then
// replays the buffers onto the bus in index order. Every parallel stage
// of a round sends this way; sendBuffer says why that keeps it
// byte-identical at any worker count. The Validator must therefore be
// safe for concurrent use (pure functions are).
func (e *Engine) fanOut(n int, fn func(i int, out node.Sender) error) error {
	out := make([]sendBuffer, n)
	if err := par.RunIndexed(e.workers(), n, func(i int) error { return fn(i, &out[i]) }); err != nil {
		return err
	}
	for i := range out {
		if err := out[i].flush(e.bus); err != nil {
			return err
		}
	}
	return nil
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
