package node

import (
	"repchain/internal/network"
	"repchain/internal/tx"
)

// TraceIDOf derives the lifecycle trace ID carried by a protocol
// payload: the hex hash of the inner signed transaction, the same ID
// every node derives locally when it emits events (DESIGN.md §4c). It
// returns "" for payloads that carry many transactions (a provider
// frame of more than one, upload batches, blocks, tickets, stake
// traffic) or that fail to decode — the transport layer uses it to stamp per-transaction trace
// context onto frames without parsing anything it would not forward
// anyway.
func TraceIDOf(kind string, payload []byte) string {
	switch kind {
	case network.KindProviderTx:
		list, err := tx.DecodeListBytes(payload)
		if err != nil || len(list) != 1 {
			return ""
		}
		return list[0].ID().String()
	case network.KindArgue:
		a, err := DecodeArgueBytes(payload)
		if err != nil {
			return ""
		}
		return a.Signed.ID().String()
	default:
		return ""
	}
}
