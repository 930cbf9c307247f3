package core

import (
	"repchain/internal/identity"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/par"
)

// fanOut runs fn(i, out) for every i in [0, n) across one goroutine
// per logical CPU, each call writing to a private sendBuffer, and then
// replays the buffers onto the bus in index order. Every parallel stage
// of a round sends this way; sendBuffer says why that keeps it
// byte-identical at any GOMAXPROCS. The Validator must therefore be
// safe for concurrent use (pure functions are).
func (e *Engine) fanOut(n int, fn func(i int, out node.Sender) error) error {
	out := make([]sendBuffer, n)
	// No floor: a node step is always worth a goroutine.
	if err := par.RunIndexed(par.Procs(0, 0), n, func(i int) error { return fn(i, &out[i]) }); err != nil {
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
