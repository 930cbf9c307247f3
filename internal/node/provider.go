package node

import (
	"fmt"
	"log/slog"
	"slices"

	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// Sender abstracts the outbound half of a broadcast network. Both the
// simulation bus (*network.Bus) and the TCP transport satisfy it, so
// node logic is transport-agnostic.
type Sender interface {
	// Multicast delivers one message from `from` to every recipient.
	Multicast(from identity.NodeID, to []identity.NodeID, kind string, payload []byte) error
}

var _ Sender = (*network.Bus)(nil)

// Provider is a data provider p_k. It signs transactions together with
// a timestamp and broadcasts them to the r collectors it is linked
// with; as an *active* provider it retrieves every block and argues
// whenever one of its valid transactions is marked invalid (§3.1).
type Provider struct {
	member identity.Member
	ep     *network.Endpoint
	// collectorIDs are the linked collectors, in index order.
	collectorIDs []identity.NodeID
	governorIDs  []identity.NodeID

	seq uint64
	// pending tracks transactions not yet settled by a block, each with
	// the provider's own knowledge of its validity — supplied by the
	// workload generator at submission time, used to decide whether to
	// argue — and whether it has been argued already. One map, so a
	// settled transaction leaves nothing behind.
	pending map[crypto.Hash]pendingTx
	// settled counts transactions observed in blocks with their final
	// status (valid, or invalid-and-confirmed).
	settledValid   int
	settledInvalid int

	// events and round feed the tx.signed event; both are optional.
	events *events.Log
	round  uint64
	// reg counts block frames Ingest skips.
	reg *metrics.Registry
}

// pendingTx is one unsettled submission. signed is its envelope, set
// once SignStaged has signed it; only a signed transaction can reach a
// block, so only those are argued.
type pendingTx struct {
	signed tx.SignedTx
	valid  bool
	argued bool
}

// Submission is one transaction handed to Stage or SignBatch: the
// application kind and payload plus the provider's ground truth about
// validity.
type Submission struct {
	Kind    string
	Payload []byte
	Valid   bool
}

// SetEvents attaches the event log; nil detaches.
func (p *Provider) SetEvents(l *events.Log) { p.events = l }

// SetMetrics attaches the registry that counts skipped block frames
// (node.blocks_ignored_total); nil means a private one.
func (p *Provider) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p.reg = reg
}

// SetRound tells the provider which round its next submissions belong
// to, for event attribution only.
func (p *Provider) SetRound(r uint64) { p.round = r }

// NewProvider wires a provider node to the bus.
func NewProvider(member identity.Member, ep *network.Endpoint, collectors, governors []identity.NodeID) *Provider {
	return &Provider{
		member:       member,
		ep:           ep,
		collectorIDs: append([]identity.NodeID(nil), collectors...),
		governorIDs:  append([]identity.NodeID(nil), governors...),
		pending:      make(map[crypto.Hash]pendingTx),
		reg:          metrics.NewRegistry(),
	}
}

// ID returns the provider's node ID.
func (p *Provider) ID() identity.NodeID { return p.member.ID }

// Index returns the provider's index k.
func (p *Provider) Index() int { return p.member.Index }

// Sign builds and signs one transaction: SignBatch for a single
// submission.
func (p *Provider) Sign(kind string, payload []byte, isValid bool, timestamp int64) tx.SignedTx {
	return p.SignBatch([]Submission{{Kind: kind, Payload: payload, Valid: isValid}}, timestamp)[0]
}

// SignBatch builds a batch of transactions and signs it once — one
// Ed25519 signature over the Merkle root of the batch's transaction
// IDs (tx.SignLeaves) — without broadcasting: Stage, then SignStaged.
func (p *Provider) SignBatch(items []Submission, timestamp int64) []tx.SignedTx {
	return p.SignStaged(p.Stage(items, timestamp))
}

// Stage builds one transaction per item under the provider's next
// seqs and timestamp, hashes each once and records it pending with the
// provider's ground truth, without signing. It returns the
// transactions and their IDs, in order, for a later SignStaged: a
// caller that queues submissions stages them at admission, so the
// timestamp reflects submission, and signs whatever one drain takes.
func (p *Provider) Stage(items []Submission, timestamp int64) ([]tx.Transaction, []crypto.Hash) {
	txs := make([]tx.Transaction, len(items))
	ids := make([]crypto.Hash, len(items))
	for i, it := range items {
		p.seq++
		txs[i] = tx.Transaction{
			Provider:  p.member.ID,
			Seq:       p.seq,
			Timestamp: timestamp,
			Kind:      it.Kind,
			Payload:   it.Payload,
		}
		ids[i] = txs[i].ID()
		p.pending[ids[i]] = pendingTx{valid: it.Valid}
	}
	return txs, ids
}

// SignStaged signs staged transactions as one batch — ids are their
// IDs as Stage returned them, in the provider's own order — and
// emits their tx.signed events in that order. Providers are
// independent: distinct providers may sign concurrently.
func (p *Provider) SignStaged(txs []tx.Transaction, ids []crypto.Hash) []tx.SignedTx {
	out := tx.SignLeaves(txs, ids, p.member.PrivateKey)
	for i, signed := range out {
		pt := p.pending[ids[i]]
		pt.signed = signed
		p.pending[ids[i]] = pt
		if p.events != nil {
			p.events.Emit(events.TypeTxSigned, ids[i].String(), p.round, string(p.member.ID),
				slog.String("kind", txs[i].Kind))
		}
	}
	return out
}

// Broadcast multicasts already-signed transactions to the provider's
// linked collectors as one frame per collector (broadcast_provider).
// The frame carries each of their batches once.
func (p *Provider) Broadcast(signed []tx.SignedTx, sender Sender) error {
	if len(signed) == 0 {
		return nil
	}
	if err := sender.Multicast(p.member.ID, p.collectorIDs, network.KindProviderTx, tx.EncodeListBytes(signed)); err != nil {
		return fmt.Errorf("provider %s broadcast: %w", p.member.ID, err)
	}
	return nil
}

// Submit signs and immediately broadcasts a transaction to the
// provider's linked collectors: a batch of one. isValid is the
// provider's own ground truth, used later to decide argues. timestamp
// is the logical or wall clock reading. Sign + Broadcast fused — the
// path of a client over TCP that submits one transaction at a time.
func (p *Provider) Submit(kind string, payload []byte, isValid bool, timestamp int64, sender Sender) (tx.SignedTx, error) {
	signed := p.Sign(kind, payload, isValid, timestamp)
	if err := p.Broadcast([]tx.SignedTx{signed}, sender); err != nil {
		return tx.SignedTx{}, err
	}
	return signed, nil
}

// Ingest consumes drained messages: each block frame a governor sent is
// observed (ObserveBlock), decoding only the provider's own records
// (ledger.DecodeOwnRecords), anything else is ignored. A frame from
// anyone else or that does not decode is skipped and counted in
// node.blocks_ignored_total. It returns the blocks observed and the
// argues they triggered.
func (p *Provider) Ingest(msgs []network.Message, sender Sender) (blocks, argues int, err error) {
	for _, m := range msgs {
		if m.Kind != network.KindBlock {
			continue
		}
		if !slices.Contains(p.governorIDs, m.From) {
			p.reg.CounterVec("node.blocks_ignored_total", "reason").With("not_governor").Inc()
			continue
		}
		b, ids, err := ledger.DecodeOwnRecords(m.Payload, p.member.ID)
		if err != nil {
			p.reg.CounterVec("node.blocks_ignored_total", "reason").With("decode").Inc()
			continue
		}
		n, err := p.observe(b.Serial, b.Records, ids, sender)
		argues += n
		if err != nil {
			return blocks, argues, err
		}
		blocks++
	}
	return blocks, argues, nil
}

// ObserveBlock scans a retrieved block for the provider's own
// transactions and sends argue messages for valid transactions marked
// invalid. It returns the number of argues issued.
func (p *Provider) ObserveBlock(b ledger.Block, sender Sender) (int, error) {
	var own []ledger.Record
	var ids []crypto.Hash
	for _, rec := range b.Records {
		if rec.Signed.Tx.Provider == p.member.ID {
			own, ids = append(own, rec), append(ids, rec.Signed.ID())
		}
	}
	return p.observe(b.Serial, own, ids, sender)
}

// observe is ObserveBlock over the provider's own records of block
// serial, ids[i] being the ID of records[i].
func (p *Provider) observe(serial uint64, records []ledger.Record, ids []crypto.Hash, sender Sender) (int, error) {
	argues := 0
	for i, rec := range records {
		id := ids[i]
		pt, ok := p.pending[id]
		if !ok {
			continue
		}
		switch {
		case rec.Status == tx.StatusValid:
			p.settledValid++
			delete(p.pending, id)
		case rec.Status != tx.StatusInvalid:
		case rec.Unchecked && pt.valid:
			// Marked invalid without verification, and the provider
			// knows it was valid: argue, once (the active-provider duty
			// of the Validity property).
			if pt.argued {
				continue
			}
			msg := NewArgue(pt.signed, serial, p.member.PrivateKey)
			if err := sender.Multicast(p.member.ID, p.governorIDs, network.KindArgue, msg.EncodeBytes()); err != nil {
				return argues, fmt.Errorf("provider %s argue: %w", p.member.ID, err)
			}
			pt.argued = true
			p.pending[id] = pt
			argues++
		default:
			// Checked invalid (the governor verified it), or unchecked
			// and invalid by the provider's own account: settled.
			p.settledInvalid++
			delete(p.pending, id)
		}
	}
	return argues, nil
}

// PendingValid returns how many of the provider's valid transactions
// have not yet appeared valid in any block — the quantity the Validity
// property drives to zero.
func (p *Provider) PendingValid() int {
	n := 0
	for _, pt := range p.pending {
		if pt.valid {
			n++
		}
	}
	return n
}

// SettledValid returns how many of the provider's transactions have
// appeared in a block with status valid.
func (p *Provider) SettledValid() int { return p.settledValid }

// Endpoint returns the provider's bus endpoint.
func (p *Provider) Endpoint() *network.Endpoint { return p.ep }
