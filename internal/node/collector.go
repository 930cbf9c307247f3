package node

import (
	"fmt"
	"log/slog"
	"math/rand"

	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// Reaction is a collector behaviour's decision for one verified
// transaction.
type Reaction struct {
	// Report is false when the collector conceals the transaction
	// (misbehaviour class 2 of §4.2).
	Report bool
	// Label is the label to upload; an honest collector uploads the
	// validator's label, a misreporter flips it (class 1).
	Label tx.Label
}

// Behavior decides how a collector treats transactions. The honest
// behaviour reports every transaction with the validator's label;
// adversarial behaviours implement the misbehaviour classes of §4.2.
type Behavior interface {
	// React is called once per verified transaction with the honest
	// label.
	React(honest tx.Label, rng *rand.Rand) Reaction
	// ForgeCount returns how many forged transactions to inject this
	// round (misbehaviour class 3).
	ForgeCount(rng *rand.Rand) int
}

// HonestBehavior always reports the validator's label and never
// forges.
type HonestBehavior struct{}

var _ Behavior = HonestBehavior{}

// React implements Behavior.
func (HonestBehavior) React(honest tx.Label, _ *rand.Rand) Reaction {
	return Reaction{Report: true, Label: honest}
}

// ForgeCount implements Behavior.
func (HonestBehavior) ForgeCount(*rand.Rand) int { return 0 }

// ProbBehavior misbehaves with fixed probabilities, covering all three
// misbehaviour classes of §4.2.
type ProbBehavior struct {
	// Misreport is the probability of flipping the honest label.
	Misreport float64
	// Conceal is the probability of not uploading a transaction.
	Conceal float64
	// Forge is the probability of injecting one forged transaction
	// per round.
	Forge float64
}

var _ Behavior = ProbBehavior{}

// React implements Behavior.
func (b ProbBehavior) React(honest tx.Label, rng *rand.Rand) Reaction {
	if rng.Float64() < b.Conceal {
		return Reaction{Report: false}
	}
	label := honest
	if rng.Float64() < b.Misreport {
		label = honest.Opposite()
	}
	return Reaction{Report: true, Label: label}
}

// ForgeCount implements Behavior.
func (b ProbBehavior) ForgeCount(rng *rand.Rand) int {
	if b.Forge > 0 && rng.Float64() < b.Forge {
		return 1
	}
	return 0
}

// Collector is a collector c_i: it verifies provider transactions,
// labels them, and uploads them to every governor (Algorithm 1).
type Collector struct {
	member      identity.Member
	ep          *network.Endpoint
	roster      *identity.Roster
	validator   tx.Validator
	behavior    Behavior
	governorIDs []identity.NodeID
	rng         *rand.Rand

	// providerIDs are the linked providers; forged transactions claim
	// one of these identities.
	providerIDs []identity.NodeID

	// stats
	received  int
	uploaded  int
	concealed int
	discarded int
	forged    int
	forgeSeq  uint64

	// budget is uploadBatchBudget; a field only so tests can force a
	// split.
	budget int

	// events is optional and feeds the tx.labeled and tx.uploaded
	// events; round attributes them and stamps the upload batches.
	events *events.Log
	round  uint64
}

// SetEvents attaches the event log; nil detaches.
func (c *Collector) SetEvents(l *events.Log) { c.events = l }

// SetRound tells the collector which round is executing: its upload
// batches carry it, and its events are attributed to it.
func (c *Collector) SetRound(r uint64) { c.round = r }

// NewCollector wires collector member of roster to the bus; it uploads
// to every governor of the roster.
func NewCollector(
	member identity.Member,
	ep *network.Endpoint,
	roster *identity.Roster,
	validator tx.Validator,
	behavior Behavior,
	seed int64,
) *Collector {
	if behavior == nil {
		behavior = HonestBehavior{}
	}
	var providerIDs []identity.NodeID
	for _, k := range roster.Topology.ProvidersOf(member.Index) {
		providerIDs = append(providerIDs, roster.Providers[k].ID)
	}
	return &Collector{
		member:      member,
		ep:          ep,
		roster:      roster,
		validator:   validator,
		behavior:    behavior,
		governorIDs: identity.IDs(roster.Governors),
		providerIDs: providerIDs,
		rng:         rand.New(rand.NewSource(seed)),
		budget:      uploadBatchBudget,
	}
}

// ID returns the collector's node ID.
func (c *Collector) ID() identity.NodeID { return c.member.ID }

// Index returns the collector's index i.
func (c *Collector) Index() int { return c.member.Index }

// uploadBatchBudget bounds one upload batch's encoded items. It sits
// well under the transport's 8 MiB frame limit, so a batch is split only
// by a drain far larger than any block.
const uploadBatchBudget = 1 << 20

// label runs the post-verification step of Algorithm 1 for one
// transaction: the behaviour reaction and the label. ok is false when
// the collector conceals the transaction.
func (c *Collector) label(signed tx.SignedTx) (item tx.UploadItem, ok bool) {
	honest := tx.LabelFor(c.validator, signed.Tx)
	reaction := c.behavior.React(honest, c.rng)
	if !reaction.Report {
		c.concealed++
		return tx.UploadItem{}, false
	}
	if c.events != nil {
		c.events.Emit(events.TypeTxLabeled, signed.ID().String(), c.round, string(c.member.ID),
			slog.Int("label", int(reaction.Label)),
			slog.Int("honest", int(honest)))
	}
	return tx.UploadItem{Signed: signed, Label: reaction.Label}, true
}

// forge returns the behaviour model's forged transactions for one
// round (misbehaviour class 3). The collector cannot produce a
// provider signature, so it signs each forgery as a batch of one under
// its own key — governors detect this except with negligible
// probability (§4.2).
func (c *Collector) forge() []tx.UploadItem {
	var items []tx.UploadItem
	for n := c.behavior.ForgeCount(c.rng); n > 0 && len(c.providerIDs) > 0; n-- {
		c.forgeSeq++
		victim := c.providerIDs[c.rng.Intn(len(c.providerIDs))]
		fake := tx.Transaction{
			Provider:  victim,
			Seq:       1_000_000_000 + c.forgeSeq,
			Timestamp: int64(c.forgeSeq),
			Kind:      "forged",
			Payload:   []byte("fabricated"),
		}
		inner := tx.Sign(fake, c.member.PrivateKey) // wrong key on purpose
		items = append(items, tx.UploadItem{Signed: inner, Label: tx.LabelValid})
	}
	return items
}

// upload signs items as one batch — split only where the next item
// would pass the byte budget — and multicasts each batch to every
// governor. No items still make one empty batch, so a governor can tell
// a collector with nothing to upload this round from a late one.
func (c *Collector) upload(items []tx.UploadItem, sender Sender) error {
	for done := 0; ; {
		end, size := done, 0
		for ; end < len(items); end++ {
			w := items[end].WireSizeBound()
			// A batch's table entry is counted where a run of its items
			// starts: at most once per run, so never less than encoded.
			if b := items[end].Signed.Batch; end == done || b != items[end-1].Signed.Batch {
				w += b.WireSizeBound()
			}
			if end > done && size+w > c.budget {
				break
			}
			size += w
		}
		frame, err := tx.SignUploadBatch(c.member.ID, c.round, items[done:end], c.member.PrivateKey)
		if err != nil {
			return fmt.Errorf("collector %s label: %w", c.member.ID, err)
		}
		if err := sender.Multicast(c.member.ID, c.governorIDs, network.KindCollectorBatch, frame); err != nil {
			return fmt.Errorf("collector %s upload: %w", c.member.ID, err)
		}
		if done = end; done == len(items) {
			return nil
		}
	}
}

// Provider-tx phase-1 classes for ProcessBatch.
const (
	ptDecodeFail uint8 = iota // malformed frame
	ptMismatch                // claimed provider is not the sender, or not a provider linked with this collector
	ptBadLeaf                 // not the leaf its batch says it is
	ptVerify                  // batch signature checked through the batch
)

// providerEntry is one phase-1 outcome: a provider transaction, or a
// frame that did not decode.
type providerEntry struct {
	class  uint8
	signed tx.SignedTx
	sig    int // batch-item index of its batch's signature (ptVerify)
}

// ProcessBatch runs Algorithm 1 plus the behaviour model over one
// drain of the collector's inbox: it verifies the provider
// transactions in msgs, labels them, appends the round's forgeries,
// and uploads the lot through sender as one signed batch. It returns
// the number of items uploaded (including forgeries). Both drivers —
// the engine's upload stage and the TCP runtime — call it once per
// round.
//
// Distinct collectors may run ProcessBatch concurrently: each touches
// only its own RNG and counters. The engine exploits this by handing
// every collector a private buffering sender and replaying the
// buffered uploads onto the bus in collector order, so the wire
// ordering — and therefore every downstream screening decision — is
// identical at any worker count. A single collector is not safe for
// concurrent invocation.
func (c *Collector) ProcessBatch(msgs []network.Message, sender Sender) (int, error) {
	// Phase 1, in arrival order: decode every provider frame and
	// structurally screen its transactions, gathering one signature
	// check per distinct provider batch and checking each transaction's
	// leaf. Phase 2 runs the checks as one batch.
	var entries []providerEntry
	checks := newSigChecks(96 * len(msgs))
	for _, m := range msgs {
		if m.Kind != network.KindProviderTx {
			continue
		}
		list, ids, err := tx.DecodeListBytes(m.Payload)
		if err != nil {
			entries = append(entries, providerEntry{class: ptDecodeFail})
			continue
		}
		for k, signed := range list {
			// verify(p_k, tx): the claimed provider must be the actual
			// sender and a provider linked with this collector, and the
			// transaction must be its batch's leaf under a good batch
			// signature. A transaction from an unlinked provider would
			// cost this collector the governors' forge penalty, since
			// they check the link on upload.
			e := providerEntry{class: ptMismatch, signed: signed}
			prov, ok := c.roster.Member(signed.Tx.Provider, identity.RoleProvider)
			if signed.Tx.Provider == m.From && ok && c.roster.Linked(prov.Index, c.member.Index) {
				e.class = ptVerify
				e.sig = checks.provider(&list[k], ids[k], prov.PublicKey)
				if e.sig < 0 {
					e.class = ptBadLeaf
				}
			}
			entries = append(entries, e)
		}
	}
	verdicts := checks.verify()

	// Phase 2 replays the verdicts in arrival order: counters advance
	// and the behaviour RNG is consumed once per verified transaction,
	// then once for the forgeries, so labels are a function of arrival
	// order alone.
	var out []tx.UploadItem
	for _, e := range entries {
		switch e.class {
		case ptDecodeFail:
			c.discarded++
		case ptMismatch, ptBadLeaf:
			c.received++
			c.discarded++
		case ptVerify:
			c.received++
			if verdicts[e.sig] != nil {
				c.discarded++
				continue
			}
			if item, ok := c.label(e.signed); ok {
				out = append(out, item)
			}
		}
	}
	honest := len(out)
	out = append(out, c.forge()...)
	if err := c.upload(out, sender); err != nil {
		return 0, err
	}
	c.uploaded += honest
	c.forged += len(out) - honest
	if c.events != nil {
		for _, item := range out[:honest] {
			c.events.Emit(events.TypeTxUploaded, item.Signed.ID().String(), c.round, string(c.member.ID),
				slog.Int("governors", len(c.governorIDs)))
		}
	}
	return len(out), nil
}

// CollectorStats reports a collector's activity counters.
type CollectorStats struct {
	Received  int
	Uploaded  int
	Concealed int
	Discarded int
	Forged    int
}

// Stats returns the collector's counters.
func (c *Collector) Stats() CollectorStats {
	return CollectorStats{
		Received:  c.received,
		Uploaded:  c.uploaded,
		Concealed: c.concealed,
		Discarded: c.discarded,
		Forged:    c.forged,
	}
}

// Endpoint returns the collector's bus endpoint.
func (c *Collector) Endpoint() *network.Endpoint { return c.ep }
