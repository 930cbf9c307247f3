package node

import (
	"fmt"
	"log/slog"
	"math/rand"

	"repchain/internal/codec"
	"repchain/internal/crypto"
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
	im          *identity.Manager
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

// NewCollector wires a collector node to the bus.
func NewCollector(
	member identity.Member,
	ep *network.Endpoint,
	im *identity.Manager,
	validator tx.Validator,
	behavior Behavior,
	governors []identity.NodeID,
	seed int64,
) *Collector {
	if behavior == nil {
		behavior = HonestBehavior{}
	}
	return &Collector{
		member:      member,
		ep:          ep,
		im:          im,
		validator:   validator,
		behavior:    behavior,
		governorIDs: append([]identity.NodeID(nil), governors...),
		providerIDs: im.ProvidersOf(member.ID),
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
// provider signature, so it signs the inner transaction with its own
// key — governors detect this except with negligible probability
// (§4.2).
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
			if end > done && size+w > c.budget {
				break
			}
			size += w
		}
		batch, err := tx.SignUploadBatch(c.member.ID, c.round, items[done:end], c.member.PrivateKey)
		if err != nil {
			return fmt.Errorf("collector %s label: %w", c.member.ID, err)
		}
		if err := sender.Multicast(c.member.ID, c.governorIDs, network.KindCollectorBatch, batch.EncodeBytes()); err != nil {
			return fmt.Errorf("collector %s upload: %w", c.member.ID, err)
		}
		if done = end; done == len(items) {
			return nil
		}
	}
}

// Provider-tx phase-1 classes for ProcessBatch.
const (
	ptSkip       uint8 = iota // not a provider transaction
	ptDecodeFail              // malformed payload
	ptMismatch                // claimed provider is not the sender, or key unknown
	ptVerify                  // signature checked through the batch
)

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
	// Phase 1, in arrival order: decode and structurally screen every
	// provider transaction, collecting the signature checks into one
	// batch. Signing bytes go back to back into a pooled arena; spans
	// are materialized only after all encoding since the arena may
	// still reallocate while growing (DESIGN.md §4f).
	kinds := make([]uint8, len(msgs))
	itemOf := make([]int, len(msgs))
	signeds := make([]tx.SignedTx, len(msgs))
	arena := codec.GetEncoder(256 * len(msgs))
	var items []crypto.BatchItem
	var spans [][2]int
	for i, m := range msgs {
		if m.Kind != network.KindProviderTx {
			kinds[i] = ptSkip
			continue
		}
		signed, err := tx.DecodeSignedTxBytes(m.Payload)
		if err != nil {
			kinds[i] = ptDecodeFail
			continue
		}
		// verify(p_k, tx): the provider's signature must check out and
		// the claimed provider must be the actual sender.
		if signed.Tx.Provider != m.From {
			kinds[i] = ptMismatch
			continue
		}
		pub, err := c.im.PublicKeyOf(signed.Tx.Provider)
		if err != nil {
			kinds[i] = ptMismatch
			continue
		}
		kinds[i] = ptVerify
		signeds[i] = signed
		itemOf[i] = len(items)
		start := arena.Len()
		signed.Tx.EncodeSigning(arena)
		items = append(items, crypto.BatchItem{Pub: pub, Sig: signed.Sig})
		spans = append(spans, [2]int{start, arena.Len()})
	}
	buf := arena.Bytes()
	for k := range items {
		items[k].Msg = buf[spans[k][0]:spans[k][1]]
	}
	verdicts := crypto.VerifyBatch(items)
	arena.Release()

	// Phase 2 replays the verdicts in arrival order: counters advance
	// and the behaviour RNG is consumed once per verified transaction,
	// then once for the forgeries, so labels are a function of arrival
	// order alone.
	var out []tx.UploadItem
	for i := range msgs {
		switch kinds[i] {
		case ptSkip:
		case ptDecodeFail:
			c.discarded++
		case ptMismatch:
			c.received++
			c.discarded++
		case ptVerify:
			c.received++
			if verdicts[itemOf[i]] != nil {
				c.discarded++
				continue
			}
			if item, ok := c.label(signeds[i]); ok {
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
