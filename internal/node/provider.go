package node

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

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
// whenever one of its valid transactions is marked invalid (§3.1). It
// keeps only what it may argue: its valid transactions, until a block
// settles each.
type Provider struct {
	member identity.Member
	// clock paces Step; nil for a provider driven by hand (Submit,
	// ObserveBlock, SetRound).
	clock *Clock
	// collectorIDs are the linked collectors, in index order.
	collectorIDs []identity.NodeID
	governorIDs  []identity.NodeID

	seq uint64
	// pending tracks the valid transactions — by the provider's own
	// account, supplied at submission — that no block has settled yet,
	// and whether each has been argued already. An invalid one is never
	// argued, and one a governor discards never reaches a block to settle
	// it, so none is kept. One map, so a settled transaction leaves
	// nothing behind.
	pending map[crypto.Hash]pendingTx
	// settledValid counts transactions observed in blocks as valid;
	// argues counts the argues sent.
	settledValid int
	argues       int

	// queued holds the transactions Queue handed over, with their IDs,
	// for the next round's opening to sign; phase is where Step left
	// the round.
	queued    []tx.Transaction
	queuedIDs []crypto.Hash
	phase     Phase

	// events and round feed the tx.signed event; events is optional.
	events *events.Log
	round  uint64
	// reg counts block frames ingest skips.
	reg *metrics.Registry
	// own and ownIDs are ingest's scratch, reused for every block: the
	// provider's records of one, as decoded, and their IDs.
	own    []ledger.Record
	ownIDs []crypto.Hash
}

// pendingTx is one unsettled valid submission. signed is its envelope,
// set once signStaged has signed it; only a signed transaction can
// reach a block, so only those are argued.
type pendingTx struct {
	signed tx.SignedTx
	argued bool
}

// Submission is one transaction handed to Stage: the application kind
// and payload plus the provider's ground truth about validity.
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

// SetRound tells a provider driven by hand which round its next
// submissions belong to, for event attribution only; Step sets it from
// the clock.
func (p *Provider) SetRound(r uint64) { p.round = r }

// NewProvider builds provider member, linked with collectors, whose
// blocks come from governors. A nil clock makes a provider driven by
// hand — Submit, ObserveBlock, SetRound — on which Step fails.
func NewProvider(member identity.Member, clock *Clock, collectors, governors []identity.NodeID) *Provider {
	return &Provider{
		member:       member,
		clock:        clock,
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

// Stage builds one transaction per item under the provider's next
// seqs and timestamp, hashes each once and records each valid one
// pending, without signing: only those may be argued. It returns the
// transactions and their IDs, in order, for Queue: a caller that
// queues submissions stages them at admission, so the timestamp
// reflects submission, and queues whatever one drain takes.
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
		if it.Valid {
			p.pending[ids[i]] = pendingTx{}
		}
	}
	return txs, ids
}

// Queue hands Step a staged transaction t with ID id, as Stage returned
// them, to sign and broadcast at its next round's opening, after any
// queued before.
func (p *Provider) Queue(t tx.Transaction, id crypto.Hash) {
	p.queued, p.queuedIDs = append(p.queued, t), append(p.queuedIDs, id)
}

// signStaged signs staged transactions as one batch — one Ed25519
// signature over the Merkle root of their IDs (tx.SignLeaves), ids as
// Stage returned them — and emits their tx.signed events in order.
// Providers are independent: distinct providers may sign concurrently.
func (p *Provider) signStaged(txs []tx.Transaction, ids []crypto.Hash) []tx.SignedTx {
	out := tx.SignLeaves(txs, ids, p.member.PrivateKey)
	for i, signed := range out {
		if pt, ok := p.pending[ids[i]]; ok {
			pt.signed = signed
			p.pending[ids[i]] = pt
		}
		if p.events != nil {
			p.events.Emit(events.TypeTxSigned, ids[i].String(), p.round, string(p.member.ID),
				slog.String("kind", txs[i].Kind))
		}
	}
	return out
}

// broadcast multicasts signed transactions to the provider's linked
// collectors as one frame per collector (broadcast_provider), which
// carries each of their batches once.
func (p *Provider) broadcast(signed []tx.SignedTx, out Sender) error {
	if err := out.Multicast(p.member.ID, p.collectorIDs, network.KindProviderTx, tx.EncodeListBytes(signed)); err != nil {
		return fmt.Errorf("provider %s broadcast: %w", p.member.ID, err)
	}
	return nil
}

// Submit signs a transaction and broadcasts it at once to the
// provider's linked collectors: a batch of one. isValid is the
// provider's own ground truth, used later to decide argues. timestamp
// is the logical or wall clock reading. The path of a client driving
// a provider by hand, one transaction at a time.
func (p *Provider) Submit(kind string, payload []byte, isValid bool, timestamp int64, sender Sender) (tx.SignedTx, error) {
	signed := p.signStaged(p.Stage([]Submission{{Kind: kind, Payload: payload, Valid: isValid}}, timestamp))
	if err := p.broadcast(signed, sender); err != nil {
		return tx.SignedTx{}, err
	}
	return signed[0], nil
}

// Step moves the provider to the clock's round at now and takes the
// block frames in msgs (ingest). The Step that opens a round with
// transactions queued ends in PhaseSign, due at once, so a StageTimer
// times the signing apart; the next signs them as one batch and
// broadcasts it, one frame per linked collector, and the provider
// awaits the block (PhaseArgue) until one arrives or the round ends.
// Otherwise its round is over: WakeAt is the next round's opening. A
// provider without a clock fails.
func (p *Provider) Step(now time.Time, msgs []network.Message, out Sender) (Progress, error) {
	if p.clock == nil {
		return Progress{}, fmt.Errorf("provider %s: Step without a clock", p.member.ID)
	}
	switch round := p.clock.index(now); {
	case round > p.round:
		p.round, p.phase = round, PhaseOver
		if len(p.queued) > 0 {
			p.phase = PhaseSign
		}
	case p.phase == PhaseSign:
		signed := p.signStaged(p.queued, p.queuedIDs)
		clear(p.queued) // the envelopes hold copies: keep no payload past its round
		p.queued, p.queuedIDs, p.phase = p.queued[:0], p.queuedIDs[:0], PhaseArgue
		if err := p.broadcast(signed, out); err != nil {
			return Progress{}, err
		}
	}
	blocks, err := p.ingest(msgs, out)
	switch end := p.clock.At(p.round, 1); {
	case err != nil:
		return Progress{}, err
	case p.phase == PhaseSign:
		return Progress{Round: p.round, Phase: p.phase, WakeAt: now}, nil
	case p.phase == PhaseArgue && blocks == 0 && now.Before(end):
		return Progress{Round: p.round, Phase: p.phase, WakeAt: end}, nil
	default:
		p.phase = PhaseOver
		return Progress{Round: p.round, WakeAt: end.Add(time.Nanosecond)}, nil
	}
}

// ingest takes drained messages: each block frame a governor sent is
// observed (ObserveBlock), decoding only the provider's own records
// (ledger.DecodeOwnRecords), anything else is ignored. A frame from
// anyone else or that does not decode is skipped and counted in
// node.blocks_ignored_total. It returns the blocks observed.
func (p *Provider) ingest(msgs []network.Message, sender Sender) (blocks int, err error) {
	for _, m := range msgs {
		if m.Kind != network.KindBlock {
			continue
		}
		if !slices.Contains(p.governorIDs, m.From) {
			p.reg.CounterVec("node.blocks_ignored_total", "reason").With("not_governor").Inc()
			continue
		}
		b, ids, err := ledger.DecodeOwnRecords(m.Payload, p.member.ID, p.own[:0], p.ownIDs[:0])
		if err != nil {
			p.reg.CounterVec("node.blocks_ignored_total", "reason").With("decode").Inc()
			continue
		}
		_, err = p.observe(b.Serial, b.Records, ids, sender)
		p.own, p.ownIDs = emptied(b.Records), ids[:0]
		if err != nil {
			return blocks, err
		}
		blocks++
	}
	return blocks, nil
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
		case rec.Unchecked:
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
			p.argues++
		default:
			// Checked invalid: the governor verified it, settled.
			delete(p.pending, id)
		}
	}
	return argues, nil
}

// PendingValid returns how many of the provider's valid transactions
// have not yet appeared valid in any block — the quantity the Validity
// property drives to zero.
func (p *Provider) PendingValid() int { return len(p.pending) }

// SettledValid returns how many of the provider's transactions have
// appeared in a block with status valid.
func (p *Provider) SettledValid() int { return p.settledValid }

// Argues returns how many argues the provider has sent.
func (p *Provider) Argues() int { return p.argues }
