package node

import (
	"fmt"
	"log/slog"
	"math/rand"
	"time"

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

// Behavior is how a collector treats transactions: it misbehaves with
// fixed probabilities, covering the three misbehaviour classes of §4.2.
// The zero value is honest: it reports every transaction with the
// validator's label, never forges, and draws nothing from the RNG.
type Behavior struct {
	// Misreport is the probability of flipping the honest label.
	Misreport float64
	// Conceal is the probability of not uploading a transaction.
	Conceal float64
	// Forge is the probability of injecting one forged transaction
	// per round.
	Forge float64
}

// React is called once per verified transaction with the honest label.
func (b Behavior) React(honest tx.Label, rng *rand.Rand) Reaction {
	if b == (Behavior{}) {
		return Reaction{Report: true, Label: honest}
	}
	if rng.Float64() < b.Conceal {
		return Reaction{Report: false}
	}
	label := honest
	if rng.Float64() < b.Misreport {
		label = honest.Opposite()
	}
	return Reaction{Report: true, Label: label}
}

// ForgeCount returns how many forged transactions to inject this round
// (misbehaviour class 3).
func (b Behavior) ForgeCount(rng *rand.Rand) int {
	if b.Forge > 0 && rng.Float64() < b.Forge {
		return 1
	}
	return 0
}

// Collector is a collector c_i: it verifies provider transactions,
// labels them, and uploads them to every governor (Algorithm 1).
type Collector struct {
	member      identity.Member
	clock       Clock
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

	// events is optional and feeds the tx.labeled and tx.uploaded events.
	events *events.Log

	// round is the clock round of the last Step: the upload batch
	// carries it, and events are attributed to it. sent is the last
	// round uploaded; filed holds the frames for the next upload.
	round, sent uint64
	filed       []network.Message

	// Scratch of processBatch, reused every round (DESIGN.md §4f): each
	// frame's transactions and their IDs as decoded, the items it
	// uploads and the signature checks. The upload copies what it sends,
	// and processBatch empties the rest.
	list    []tx.SignedTx
	listIDs []crypto.Hash
	items   []tx.UploadItem
	checks  sigChecks
}

// SetEvents attaches the event log; nil detaches.
func (c *Collector) SetEvents(l *events.Log) { c.events = l }

// NewCollector builds collector member of roster on clock, whose Round
// must be positive; it uploads to every governor of the roster.
func NewCollector(
	member identity.Member,
	clock Clock,
	roster *identity.Roster,
	validator tx.Validator,
	behavior Behavior,
	seed int64,
) *Collector {
	var providerIDs []identity.NodeID
	for _, k := range roster.Topology.ProvidersOf(member.Index) {
		providerIDs = append(providerIDs, roster.Providers[k].ID)
	}
	return &Collector{
		member:      member,
		clock:       clock,
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

// Step moves the collector to the clock's round at now and files the
// provider frames in msgs. At the round's upload deadline, or the first
// Step past it, it uploads everything filed as one signed batch
// (processBatch); a frame filed after that, or in a round the collector
// missed, goes up with the next. WakeAt is the next upload deadline.
// The Step that opens a round only files, so a driver times the upload
// as the round's upload stage even when the deadline opens the round:
// the upload is then held for the next Step, due at once.
func (c *Collector) Step(now time.Time, msgs []network.Message, out Sender) (Progress, error) {
	opens := c.clock.index(now) > c.round
	c.round = max(c.round, c.clock.index(now))
	c.filed = append(c.filed, msgs...)
	deadline := c.clock.At(c.round, DeadlineUpload)
	if c.sent < c.round && !opens && !now.Before(deadline) {
		c.sent = c.round
		_, err := c.processBatch(c.filed, out)
		if c.filed = c.filed[:0]; err != nil {
			return Progress{}, err
		}
	}
	if c.sent == c.round {
		return Progress{Round: c.round, WakeAt: c.clock.At(c.round+1, DeadlineUpload)}, nil
	}
	return Progress{Round: c.round, Phase: PhaseUpload, WakeAt: deadline}, nil
}

// processBatch runs Algorithm 1 plus the behaviour model over the
// frames a round filed: it verifies the provider transactions in msgs,
// labels them, appends the round's forgeries, and uploads the lot
// through sender as one signed batch. It returns the number of items
// uploaded (including forgeries). Step calls it once per round.
//
// Transactions are checked and labeled in arrival order, so counters
// advance and the behaviour RNG is consumed once per verified
// transaction, then once for the forgeries: labels are a function of
// arrival order alone. Distinct collectors may Step concurrently (each
// touches only its own RNG and counters); the engine replays their
// buffered uploads in collector order, so the wire order is the same at
// any worker count. A single collector is not safe for concurrent
// invocation.
func (c *Collector) processBatch(msgs []network.Message, sender Sender) (int, error) {
	out := c.items[:0]
	for _, m := range msgs {
		if m.Kind != network.KindProviderTx {
			continue
		}
		list, ids, err := tx.DecodeListBytes(m.Payload, c.list[:0], c.listIDs[:0])
		if err != nil {
			c.discarded++
			continue
		}
		c.list, c.listIDs = list, ids
		for k := range list {
			c.received++
			// verify(p_k, tx): the claimed provider must be the actual
			// sender and a provider linked with this collector, and the
			// transaction must be its batch's leaf under a good batch
			// signature. A transaction from an unlinked provider would
			// cost this collector the governors' forge penalty, since
			// they check the link on upload.
			s := &list[k]
			prov, ok := c.roster.Member(s.Tx.Provider, identity.RoleProvider)
			if s.Tx.Provider != m.From || !ok || !c.roster.Linked(prov.Index, c.member.Index) ||
				c.checks.provider(s, ids[k], prov.PublicKey) != nil {
				c.discarded++
				continue
			}
			if item, ok := c.label(*s); ok {
				out = append(out, item)
			}
		}
	}
	c.checks.reset()
	honest := len(out)
	out = append(out, c.forge()...)
	err := c.upload(out, sender)
	if err == nil && c.events != nil {
		for _, item := range out[:honest] {
			c.events.Emit(events.TypeTxUploaded, item.Signed.ID().String(), c.round, string(c.member.ID),
				slog.Int("governors", len(c.governorIDs)))
		}
	}
	n := len(out)
	c.list, c.items = emptied(c.list), emptied(out)
	if err != nil {
		return 0, err
	}
	c.uploaded += honest
	c.forged += n - honest
	return n, nil
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
