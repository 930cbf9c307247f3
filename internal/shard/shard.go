// Package shard runs K independent governor committees over a
// partition of the provider set — the committee-sharding construction
// the sharded-RepChain line of work (arXiv:1901.05741) applies to the
// paper's single-committee protocol.
//
// Each committee is a complete, self-contained core.Engine: its own
// mempools, governor set, VRF leader election, ledger segment
// directory, and chain head. Providers are assigned to committees by
// identity.ModuloPartition; collectors follow their
// providers so every committee is again a regular bipartite topology
// with the global collector degree s.
//
// Cross-shard transactions use a two-phase receipt: the source
// committee commits a lock block record (kind shard.KindLock) whose
// payload carries the destination and the inner transaction; once the
// lock commits with a valid status, the cluster enqueues a receipt
// (kind shard.KindReceipt) on the destination committee, keyed by the
// lock's transaction ID. Delivery is at-least-once with idempotent
// receipts: an unacknowledged receipt is resubmitted after
// receiptRetry rounds, and duplicate receipt records deduplicate by
// lock ID. Both phases are ordinary signed transactions flowing
// through the existing codec, screening, and CRC-framed ledger paths.
//
// Reputation is portable across committees: when a provider is
// re-homed (Cluster.Rehome) its collectors' full RWM weight columns
// and additive misreport/forge scores move with it via
// reputation.MigrateInto, so the destination governors resume
// screening with exactly the learned weights — verifiable bitwise
// against an events.ReplayReputation reconstruction of the source
// committee's event log.
//
// The single-committee case (Committees <= 1) passes the base
// configuration through untouched, so a K=1 cluster is byte-identical
// to a bare engine run; the facade's Chain is exactly that cluster.
package shard

import "errors"

// Sentinel errors of the cluster layer, matched with errors.Is. A bad
// configuration, use after Close and an out-of-range provider are
// core's ErrBadConfig, ErrClosed and ErrUnknownProvider.
var (
	// ErrUnknownCommittee reports an out-of-range committee index.
	ErrUnknownCommittee = errors.New("shard: unknown committee")
	// ErrRehome reports an unsupported re-home request.
	ErrRehome = errors.New("shard: cannot re-home provider")
)
