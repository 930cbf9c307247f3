package node

import (
	"fmt"
	"log/slog"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"

	"repchain/internal/codec"
	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/mempool"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// DefaultArgueWindow is U where a deployment does not choose one: the
// facade's default and the TCP runtime's value.
const DefaultArgueWindow = 64

// Seed derives member's RNG seed from the alliance seed: collector i
// draws from seed+1000+i, governor j from seed+2000+j and provider k's
// workload from seed+k. core.Engine and transport.RunNode both call it,
// so one alliance seed gives every node the same stream in process and
// over TCP.
func Seed(alliance int64, m identity.Member) int64 {
	switch m.Role {
	case identity.RoleCollector:
		return alliance + 1000 + int64(m.Index)
	case identity.RoleGovernor:
		return alliance + 2000 + int64(m.Index)
	}
	return alliance + int64(m.Index)
}

// GovernorConfig assembles a governor's dependencies.
type GovernorConfig struct {
	// Member is the governor's credential and signing key.
	Member identity.Member
	// Clock is the round schedule Step reads; Round must be positive.
	Clock Clock
	// Roster is the alliance's membership: every key, role, index and
	// provider–collector link verify() consults.
	Roster *identity.Roster
	// Params tunes the reputation mechanism.
	Params reputation.Params
	// Validator is validate(tx).
	Validator tx.Validator
	// BlockLimit is b_limit; zero means unlimited. screenRound yields at
	// most BlockLimit records a round and AcceptBlock refuses a block
	// with more.
	BlockLimit int
	// ArgueWindow is U: an unchecked transaction may be argued until
	// U newer unchecked transactions from the same provider exist.
	ArgueWindow int
	// Seed drives the governor's local screening randomness.
	Seed int64
	// Stakes are the governors' stake units, in roster order, for a chain
	// with no checkpoint; nil means one unit each. A checkpoint's stakes
	// win over these.
	Stakes []uint64
	// StateDir, when non-empty, holds the governor's ledger replica:
	// NewGovernor opens the segment directory governor-<j>.chain under it
	// and restores its checkpoint, Close releases it. Empty means a fresh
	// in-memory replica.
	StateDir string
	// SegmentBytes overrides the replica's segment roll threshold in
	// bytes; zero keeps the ledger default. Needs StateDir.
	SegmentBytes int64
	// SnapshotEvery is the round end's checkpoint cadence: one each time
	// the chain has grown this many blocks past the last one; zero means
	// none. Needs StateDir.
	SnapshotEvery int
	// MempoolCap bounds the governor's upload mempool per provider (0 =
	// unbounded). A provider at its cap has its oldest pending
	// transaction evicted to admit the new one; evictions are counted in
	// mempool.evicted_total.
	MempoolCap int
	// Metrics receives screening, reputation-delta, election, stake and
	// checkpoint metrics; nil means a private registry. All governors of
	// one engine share a registry, so the per-collector counters
	// aggregate alliance-wide.
	Metrics *metrics.Registry
	// Events, when non-nil, receives the governor's event stream
	// (uploads screened, argues, leader elected, blocks and their
	// records packed/committed, reputation deltas with their
	// arguments). Reputation events carry enough to re-apply the delta
	// offline (events.ReplayReputation), so the stream is an audit
	// trail, not just a log. Nil is free: every emission site checks it
	// before building anything.
	Events *events.Log
}

// GovernorStats counts a governor's screening activity.
type GovernorStats struct {
	// ReportsReceived counts verified collector uploads.
	ReportsReceived int
	// ForgeriesDetected counts uploads failing verify().
	ForgeriesDetected int
	// Checked counts transactions the governor validated.
	Checked int
	// Unchecked counts transactions recorded (invalid, unchecked).
	Unchecked int
	// ValidRecorded counts transactions recorded valid.
	ValidRecorded int
	// InvalidDiscarded counts checked-invalid transactions discarded.
	InvalidDiscarded int
	// ArguesAccepted counts argues that re-validated a transaction.
	ArguesAccepted int
	// ArguesRejected counts stale, duplicate, or failed argues.
	ArguesRejected int
	// Expired counts unchecked transactions revealed invalid after
	// the argue window lapsed.
	Expired int
	// Mistakes counts unchecked transactions whose argue showed the
	// recorded invalid status was wrong — the governor's realized
	// mistakes that Theorem 4 bounds.
	Mistakes int
	// SilentReports counts (transaction, linked collector) pairs where
	// the collector uploaded nothing — silence, as distinct from the
	// misreports counted through the reputation table.
	SilentReports int
	// EvictedTxs counts pending transactions evicted because their
	// provider was at its mempool cap, to admit its newer arrivals.
	EvictedTxs int
}

// uncheckedEntry tracks one (tx, invalid, unchecked) record awaiting
// its reveal: an argue, or expiry after ArgueWindow newer entries.
type uncheckedEntry struct {
	provider int
	id       crypto.Hash
	signed   tx.SignedTx
	reports  []reputation.Report
	revealed bool
}

// groupedTx accumulates the pending reports for one transaction. The
// screening order lives in the governor's mempool, not here: the pool
// holds each pending transaction's ID in arrival order.
type groupedTx struct {
	signed   tx.SignedTx
	provider int
	reports  []reputation.Report // one per reporting collector
}

// Governor is a governor g_j: it screens uploaded transactions with
// the reputation mechanism (Algorithm 2), updates reputations
// (Algorithm 3), elects, leads and adopts blocks, runs the stake
// transform, and maintains a full replica of the ledger: Step (round.go)
// runs its round, stake.go the stake transform.
type Governor struct {
	cfg   GovernorConfig
	table *reputation.Table
	store ledger.Store
	// fs is store when the replica is on disk; nil in memory.
	fs  *ledger.FileStore
	rng *rand.Rand
	reg *metrics.Registry

	// The roster's governors in index order — their IDs and keys — and a
	// block's recipients: the governors, then the providers.
	governorIDs []identity.NodeID
	pubs        []crypto.PublicKey
	blockTo     []identity.NodeID

	// pending ingestion state: transactions grouped by ID, with the
	// screening order — arrival order — kept in pool.
	groups map[crypto.Hash]*groupedTx
	pool   *mempool.Pool[crypto.Hash]
	argues []ArgueMsg
	// uploadRound[c] is the latest round collector c's verified upload
	// batches were tagged with.
	uploadRound []uint64

	// pendingRecords carries argue re-validations that did not fit the
	// round's BlockLimit into later rounds. Every governor processes
	// every argue, so the carry is the same on every governor.
	pendingRecords []ledger.Record

	// unchecked is the per-provider argue window (U) queue.
	unchecked     map[int][]*uncheckedEntry
	uncheckedByID map[crypto.Hash]*uncheckedEntry

	// committedValid tracks transactions already recorded valid in
	// the replicated chain, preventing duplicate re-inclusion when
	// several governors accept the same argue.
	committedValid map[crypto.Hash]bool
	// processedArgues prevents double-processing one argue delivered
	// by several providers or rounds.
	processedArgues map[crypto.Hash]bool

	stats  GovernorStats
	events *events.Log

	// Pre-resolved per-collector checked-screening counters (indexed by
	// global collector index), mempool evictions and upload refusals by
	// reason.
	scrChecked []*metrics.Counter
	mpEvicted  *metrics.Counter
	upRejected *metrics.CounterVec

	// merkle is the incremental transaction-root builder buildBlock
	// feeds while packing, so the root is ready the moment the record
	// list is final (DESIGN.md §4f).
	merkle *crypto.MerkleBuilder

	// round is the round begin opened (it also attributes events), phase
	// where Step left it; base is the height at NewGovernor, so the clock's
	// first round is round base+1.
	round, base uint64
	phase       Phase
	stakeDone   bool
	// down is the failure detector's last verdict (KindDown); electing,
	// the stakes the round's election runs on.
	down     []byte
	electing []uint64
	// prevHash and baseHeight are the chain head the round's tickets
	// were made over; the round's block is committed once the chain
	// outgrows it.
	prevHash   crypto.Hash
	baseHeight uint64
	records    []ledger.Record
	// tickets[j] is the first batch governor j sent for this round, and
	// next[j] the first for the round after, from a peer already there.
	tickets, next    [][]consensus.Ticket
	filed, nextFiled []bool
	// blocks stashes block frames until the step that knows which
	// leader's signature to demand of them.
	blocks             [][]byte
	leader, prevLeader int

	// Stake state (stake.go): the committed vector and each payer's next
	// nonce, both checkpointed; expelled[j], the evidence that expelled
	// governor j; the filed transfers, sorted by (payer, nonce); settled,
	// the round of the last stake block applied or checkpoint restored.
	stakes, nextNonce []uint64
	expelled          []*consensus.Evidence
	transfers         []consensus.StakeTx
	settled           uint64
	// This round's transform: the leader's proposal as filed, what this
	// governor did with it, the endorsements filed by governor (leader
	// only). endorsed is the last proposal it endorsed and has no block
	// for; applied is the last block it applied.
	proposal, endorsed                     *consensus.StateProposal
	proposed, answered, assembled, corrupt bool
	endorsements                           []consensus.Endorsement
	applied                                *consensus.StakeBlock
}

// NewGovernor builds a governor from its configuration, opens its
// replica and restores the replica's latest checkpoint, if any:
// reputation, stakes and next nonces resume where they were left. On
// an error the replica is closed again.
func NewGovernor(cfg GovernorConfig) (*Governor, error) {
	table, err := reputation.NewTable(cfg.Roster.Topology, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("governor %s: %w", cfg.Member.ID, err)
	}
	if cfg.ArgueWindow <= 0 {
		cfg.ArgueWindow = DefaultArgueWindow
	}
	if cfg.MempoolCap < 0 {
		return nil, fmt.Errorf("governor %s: mempool cap %d must be non-negative", cfg.Member.ID, cfg.MempoolCap)
	}
	if cfg.Clock.Round <= 0 {
		return nil, fmt.Errorf("governor %s: clock round %v must be positive", cfg.Member.ID, cfg.Clock.Round)
	}
	m := len(cfg.Roster.Governors)
	stakes := slices.Clone(cfg.Stakes)
	if stakes == nil {
		stakes = make([]uint64, m)
		for j := range stakes {
			stakes[j] = 1
		}
	}
	if len(stakes) != m {
		return nil, fmt.Errorf("governor %s: %d stakes for %d governors", cfg.Member.ID, len(stakes), m)
	}
	if cfg.StateDir == "" && (cfg.SnapshotEvery != 0 || cfg.SegmentBytes != 0) {
		return nil, fmt.Errorf("governor %s: snapshot cadence %d and segment bytes %d need a state directory",
			cfg.Member.ID, cfg.SnapshotEvery, cfg.SegmentBytes)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	var store ledger.Store
	var fs *ledger.FileStore
	if cfg.StateDir == "" {
		store = ledger.NewMemoryStore()
	} else {
		fs, err = ledger.OpenFileStoreOptions(
			filepath.Join(cfg.StateDir, fmt.Sprintf("governor-%d.chain", cfg.Member.Index)),
			ledger.StoreOptions{SegmentBytes: cfg.SegmentBytes},
		)
		if err != nil {
			return nil, fmt.Errorf("governor %s chain file: %w", cfg.Member.ID, err)
		}
		store = fs
	}
	g := &Governor{
		cfg:             cfg,
		table:           table,
		store:           store,
		fs:              fs,
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		reg:             reg,
		governorIDs:     identity.IDs(cfg.Roster.Governors),
		pubs:            make([]crypto.PublicKey, m),
		blockTo:         append(identity.IDs(cfg.Roster.Governors), identity.IDs(cfg.Roster.Providers)...),
		groups:          make(map[crypto.Hash]*groupedTx),
		pool:            mempool.New[crypto.Hash](cfg.Roster.Topology.Providers(), cfg.MempoolCap),
		unchecked:       make(map[int][]*uncheckedEntry),
		uncheckedByID:   make(map[crypto.Hash]*uncheckedEntry),
		committedValid:  make(map[crypto.Hash]bool),
		processedArgues: make(map[crypto.Hash]bool),
		uploadRound:     make([]uint64, cfg.Roster.Topology.Collectors()),
		events:          cfg.Events,
		scrChecked:      make([]*metrics.Counter, cfg.Roster.Topology.Collectors()),
		mpEvicted:       reg.Counter("mempool.evicted_total"),
		upRejected:      reg.CounterVec("node.uploads_rejected_total", "reason"),
		merkle:          crypto.NewMerkleBuilder(64),
		round:           store.Height(),
		base:            store.Height(),
		tickets:         make([][]consensus.Ticket, m),
		next:            make([][]consensus.Ticket, m),
		filed:           make([]bool, m),
		nextFiled:       make([]bool, m),
		leader:          -1,
		prevLeader:      -1,
		stakes:          stakes,
		nextNonce:       make([]uint64, m),
		expelled:        make([]*consensus.Evidence, m),
		endorsements:    make([]consensus.Endorsement, m),
	}
	for j, mem := range cfg.Roster.Governors {
		g.pubs[j] = mem.PublicKey
	}
	table.SetMetrics(reg)
	checked := reg.CounterVec("screen.checked_total", "collector")
	for c := range g.scrChecked {
		g.scrChecked[c] = checked.With(strconv.Itoa(c))
	}
	if err := g.restore(); err != nil {
		_ = g.Close()
		return nil, err
	}
	return g, nil
}

// Close releases the governor's replica without checkpointing it;
// Checkpoint first to make the run durable. Idempotent, and a no-op in
// memory.
func (g *Governor) Close() error {
	if g.fs == nil {
		return nil
	}
	if err := g.fs.Close(); err != nil {
		return fmt.Errorf("%s: %w", g.ID(), err)
	}
	return nil
}

// ID returns the governor's node ID.
func (g *Governor) ID() identity.NodeID { return g.cfg.Member.ID }

// Table exposes the governor's reputation table for inspection.
func (g *Governor) Table() *reputation.Table { return g.table }

// Store exposes the governor's ledger replica.
func (g *Governor) Store() ledger.Store { return g.store }

// Stats returns the governor's counters.
func (g *Governor) Stats() GovernorStats { return g.stats }

// Phase-1 routing classes for handleBatch.
const (
	pmRest uint8 = iota // not a governor message: hand back to caller
	pmUpload
	pmArgue
)

// pendingBatch carries one classified collector upload batch between
// the signature-batching phase and the in-order replay phase.
type pendingBatch struct {
	collectorIdx int
	// reject names an envelope failure found before any cryptography
	// (an uploads_rejected_total reason); empty when there is none.
	reject string
	sig    int // batch-item index of the batch signature
	batch  tx.UploadBatch
	ids    []crypto.Hash // the items' IDs, as the decoder hashed them
	items  []pendingItem
}

// pendingItem checks one labeled transaction of an authenticated batch.
type pendingItem struct {
	providerIdx int
	provSig     int // batch-item index of its provider batch's signature, -1 = not a roster provider or not the batch's leaf
	linked      bool
}

// pendingArgue is the argue counterpart of pendingBatch.
type pendingArgue struct {
	msg      ArgueMsg
	innerSig int // batch-item index of the inner transaction's provider batch signature
	argueSig int // batch-item index of the argue signature
	rejected bool
}

// handleBatch ingests a batch of delivered messages through one
// crypto.VerifyBatch pass and returns the messages it did not consume,
// in arrival order. It is the governor's only ingest path: collector
// upload batches run verify(c_i, Tx) per the paper — the collector's
// signature over the batch under its roster key, and for each item its
// leaf in its provider batch, that batch's signature (checked once per
// distinct batch) and the provider's link — and provider argues are
// queued.
//
// Attribution (Algorithm 3 case 1): a batch from a sender that is not a
// roster collector is refused unscored. Any other batch that fails as a
// whole — undecodable, sender is not the claimed collector, bad batch
// signature — admits nothing and costs the sender one forge penalty.
// Inside an authenticated batch each bad item (provider not in the
// roster, not its batch's leaf, its batch's signature fails, provider
// not linked to the collector) costs one penalty and the remaining
// items are admitted.
// An authenticated batch, empty or not, files its round under its
// collector for uploadsIn.
//
// Determinism (DESIGN.md §4f): phase 1 walks the messages in arrival
// order doing only pure work — decoding, identity lookups, and
// appending signature-check items into a pooled arena encoder. Phase 2
// verifies every signature in one batch (cache hits skipped, in-batch
// duplicates coalesced). Phase 3 replays the verdicts in arrival
// order, batch by batch and item by item: forge penalties, admission
// shedding, mempool insertion, report grouping, and argue queuing all
// happen in that order, so the governor's state is a function of the
// item sequence alone — one batch of N and N batches of one leave it
// byte-identical.
func (g *Governor) handleBatch(msgs []network.Message) ([]network.Message, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	kinds := make([]uint8, len(msgs))
	slots := make([]int, len(msgs))
	var ups []pendingBatch
	var args []pendingArgue

	// The signing messages of an upload batch are shorter than its
	// payload, so the governor-bound payload bytes size the arena.
	size := 0
	for _, m := range msgs {
		if m.Kind == network.KindCollectorBatch || m.Kind == network.KindArgue {
			size += len(m.Payload)
		}
	}
	checks := newSigChecks(size)

	for i, m := range msgs {
		switch m.Kind {
		case network.KindCollectorBatch:
			u := pendingBatch{sig: -1}
			coll, isCollector := g.cfg.Roster.Member(m.From, identity.RoleCollector)
			u.collectorIdx = coll.Index
			if !isCollector {
				u.reject = "not_collector"
			} else if batch, rcv, derr := tx.DecodeUploadBatchBytes(m.Payload); derr != nil {
				u.reject = "decode"
			} else if batch.Collector != m.From {
				// The upload must come from the collector that signed it.
				u.reject = "sender_mismatch"
			} else {
				start := checks.arena.Len()
				batch.EncodeSigning(checks.arena, rcv.Digest)
				u.sig = checks.add(coll.PublicKey, start, batch.Sig)
				u.batch, u.ids = batch, rcv.IDs
				u.items = make([]pendingItem, len(batch.Items))
				for k := range batch.Items {
					s := &batch.Items[k].Signed
					pi := pendingItem{provSig: -1}
					if prov, ok := g.cfg.Roster.Member(s.Tx.Provider, identity.RoleProvider); ok {
						pi.provSig = checks.provider(s, rcv.IDs[k], prov.PublicKey)
						pi.providerIdx = prov.Index
						pi.linked = g.cfg.Roster.Linked(prov.Index, coll.Index)
					}
					u.items[k] = pi
				}
			}
			kinds[i] = pmUpload
			slots[i] = len(ups)
			ups = append(ups, u)
		case network.KindArgue:
			a := pendingArgue{innerSig: -1, argueSig: -1, rejected: true}
			msg, derr := DecodeArgueBytes(m.Payload)
			// Only the authoring provider may argue its own transaction.
			if derr == nil && msg.Signed.Tx.Provider == m.From {
				if prov, ok := g.cfg.Roster.Member(m.From, identity.RoleProvider); ok {
					a.msg = msg
					id := msg.Signed.ID()
					a.innerSig = checks.provider(&msg.Signed, id, prov.PublicKey)
					if a.rejected = a.innerSig < 0; !a.rejected {
						start := checks.arena.Len()
						encodeArgueSigning(checks.arena, id, msg.Serial)
						a.argueSig = checks.add(prov.PublicKey, start, msg.Sig)
					}
				}
			}
			kinds[i] = pmArgue
			slots[i] = len(args)
			args = append(args, a)
		default:
			kinds[i] = pmRest
		}
	}

	verdicts := checks.verify()

	var rest []network.Message
	for i, m := range msgs {
		switch kinds[i] {
		case pmRest:
			rest = append(rest, m)
		case pmUpload:
			u := &ups[slots[i]]
			if u.reject == "" && verdicts[u.sig] != nil {
				u.reject = "batch_sig"
			}
			if u.reject != "" {
				g.countRejected(u.reject)
				// An uploader outside the collector role cannot be scored.
				if u.reject != "not_collector" {
					if err := g.penalizeUpload(u.collectorIdx); err != nil {
						return rest, err
					}
				}
				continue
			}
			g.uploadRound[u.collectorIdx] = max(g.uploadRound[u.collectorIdx], u.batch.Round)
			for k := range u.items {
				it := &u.items[k]
				var err error
				switch {
				case it.provSig < 0 || verdicts[it.provSig] != nil:
					err = g.rejectUpload("item_provider_sig", u.collectorIdx)
				case !it.linked:
					err = g.rejectUpload("item_unlinked", u.collectorIdx)
				default:
					err = g.admitUpload(u.collectorIdx, it.providerIdx, u.ids[k], &u.batch.Items[k])
				}
				if err != nil {
					return rest, err
				}
			}
		case pmArgue:
			a := &args[slots[i]]
			if a.rejected || verdicts[a.innerSig] != nil || verdicts[a.argueSig] != nil {
				g.stats.ArguesRejected++
				continue
			}
			g.argues = append(g.argues, a.msg)
		}
	}
	return rest, nil
}

// countRejected records one refused upload (a whole batch or one item)
// in node.uploads_rejected_total under reason.
func (g *Governor) countRejected(reason string) {
	g.upRejected.With(reason).Inc()
}

// rejectUpload counts a failed upload verification under reason and
// applies the forge penalty for it.
func (g *Governor) rejectUpload(reason string, collectorIdx int) error {
	g.countRejected(reason)
	return g.penalizeUpload(collectorIdx)
}

// penalizeUpload applies the Algorithm 3 case-1 forge penalty for a
// failed upload verification.
func (g *Governor) penalizeUpload(collectorIdx int) error {
	g.stats.ForgeriesDetected++
	if err := g.table.RecordForgery(collectorIdx); err != nil {
		return fmt.Errorf("governor %s forge penalty: %w", g.cfg.Member.ID, err)
	}
	if g.events != nil {
		g.events.Emit(events.TypeReputationForge, "", g.round, string(g.cfg.Member.ID),
			slog.Int("collector", collectorIdx))
	}
	return nil
}

// admitUpload runs the post-verification tail of upload ingestion for
// the item whose transaction is id: mempool insertion and report
// grouping.
func (g *Governor) admitUpload(collectorIdx, providerIdx int, id crypto.Hash, labeled *tx.UploadItem) error {
	// A report for a transaction this governor has already screened —
	// it straggled in a round late — must not open a second mempool
	// group and put the transaction in a second block.
	if _, open := g.uncheckedByID[id]; open || g.committedValid[id] {
		g.countRejected("late")
		return nil
	}
	grp, ok := g.groups[id]
	if !ok {
		// New pending transaction: take one of the provider's mempool
		// slots. A provider at its cap has its oldest pending
		// transaction (and that transaction's accumulated reports)
		// evicted to admit the newer arrival.
		if g.pool.Room(providerIdx) == 0 {
			if old, ok := g.pool.EvictOldest(providerIdx); ok {
				delete(g.groups, old)
				g.stats.EvictedTxs++
				g.mpEvicted.Inc()
			}
		}
		if _, err := g.pool.Add(providerIdx, id); err != nil {
			return fmt.Errorf("governor %s mempool: %w", g.cfg.Member.ID, err)
		}
		grp = &groupedTx{
			signed:   labeled.Signed,
			provider: providerIdx,
			reports:  make([]reputation.Report, 0, len(g.cfg.Roster.Topology.CollectorsOf(providerIdx))),
		}
		g.groups[id] = grp
	}
	// At most r reports, one per collector: a scan finds a repeat.
	for _, rp := range grp.reports {
		if rp.Collector != collectorIdx {
			continue
		}
		if rp.Label != labeled.Label {
			// Equivocation: two different signed labels for one
			// transaction. Treat as fabrication.
			return g.penalizeUpload(collectorIdx)
		}
		return nil // idempotent duplicate
	}
	grp.reports = append(grp.reports, reputation.Report{Collector: collectorIdx, Label: labeled.Label})
	g.stats.ReportsReceived++
	return nil
}

// processArgues resolves queued argues (Algorithm 2 lines 34–39): the
// governor re-validates the disputed transaction; a valid one is
// appended (tx, valid) to a later block. When the governor itself
// left the transaction unchecked, the reveal also updates reputations
// with case 3. Every governor processes every argue — the chain
// records the leader's screening, so a governor that happened to check
// the transaction locally must still be ready to re-include it when it
// next leads.
func (g *Governor) processArgues() error {
	for _, a := range g.argues {
		id := a.Signed.ID()
		if g.processedArgues[id] || g.committedValid[id] {
			g.stats.ArguesRejected++
			continue
		}
		g.processedArgues[id] = true
		var txID string
		if g.events != nil {
			txID = id.String()
			g.events.Emit(events.TypeTxArgued, txID, g.round, string(g.cfg.Member.ID),
				slog.Uint64("serial", a.Serial))
		}

		status := tx.StatusInvalid
		if g.cfg.Validator.Validate(a.Signed.Tx) {
			status = tx.StatusValid
			g.pendingRecords = append(g.pendingRecords, ledger.Record{
				Signed: a.Signed,
				Label:  tx.LabelValid,
				Status: tx.StatusValid,
			})
			g.stats.ArguesAccepted++
			g.stats.Mistakes++ // recorded invalid, actually valid
		} else {
			g.stats.ArguesRejected++
		}
		// Case-3 reveal only applies where this governor holds the
		// unchecked entry (it knows who reported what).
		if entry, ok := g.uncheckedByID[id]; ok && !entry.revealed {
			if len(entry.reports) > 0 {
				res, err := g.table.RecordRevealed(entry.provider, entry.reports, status)
				if err != nil {
					return fmt.Errorf("governor %s argue reveal: %w", g.cfg.Member.ID, err)
				}
				if g.events != nil {
					g.events.Emit(events.TypeReputationReveal, txID, g.round, string(g.cfg.Member.ID),
						slog.Int("provider", entry.provider),
						slog.String("reports", events.FormatReports(entry.reports)),
						slog.Int("status", int(status)),
						slog.String("tx", txID),
						slog.String("gamma", strconv.FormatFloat(res.Gamma, 'g', 6, 64)),
						slog.String("loss", strconv.FormatFloat(res.Loss, 'g', 6, 64)))
				}
			}
			entry.revealed = true
			delete(g.uncheckedByID, id)
		}
	}
	g.argues = g.argues[:0]
	return nil
}

// screenRound runs Algorithm 2 over a batch drained from the
// governor's mempool and returns the records destined for the next
// block: pending argue re-validations first, then the screened uploads,
// at most BlockLimit in all. Whatever does not fit stays queued — the
// re-validations in pendingRecords, the uploads in the pool — on every
// governor alike, so the next leader, whoever it is, commits it.
// Reputation updates (cases 2 and 3) happen inline.
//
// The drain is the determinism pivot: entries come out in upload
// arrival order, which the bus fixes by sequence number, so screening
// consumes the governor's RNG stream identically at any worker count.
func (g *Governor) screenRound() ([]ledger.Record, error) {
	records := g.pendingRecords
	g.pendingRecords = nil
	uploads := 0 // Drain(0) takes everything
	if limit := g.cfg.BlockLimit; limit > 0 {
		if len(records) >= limit {
			g.pendingRecords = records[limit:]
			return records[:limit:limit], nil
		}
		uploads = limit - len(records)
	}

	for _, id := range g.pool.Drain(uploads) {
		grp, ok := g.groups[id]
		if !ok {
			continue
		}
		delete(g.groups, id)
		if silent := len(g.cfg.Roster.Topology.CollectorsOf(grp.provider)) - len(grp.reports); silent > 0 {
			g.stats.SilentReports += silent
		}
		dec, err := g.table.Screen(g.rng, grp.provider, grp.reports)
		if err != nil {
			return nil, fmt.Errorf("governor %s screen: %w", g.cfg.Member.ID, err)
		}
		if dec.Check {
			g.scrChecked[dec.Collector].Inc()
		}
		// One hex encode per transaction, and none with the log off: the
		// ID string feeds up to two events below.
		var txID string
		if g.events != nil {
			txID = id.String()
			g.events.Emit(events.TypeUploadScreened, txID, g.round, string(g.cfg.Member.ID),
				slog.String("tx", txID),
				slog.Int("collector", dec.Collector),
				slog.Bool("checked", dec.Check),
				slog.Int("label", int(dec.Label)))
		}
		if dec.Check {
			g.stats.Checked++
			valid := g.cfg.Validator.Validate(grp.signed.Tx)
			status := tx.StatusFor(valid)
			if err := g.table.RecordChecked(grp.provider, grp.reports, status); err != nil {
				return nil, fmt.Errorf("governor %s checked update: %w", g.cfg.Member.ID, err)
			}
			if g.events != nil {
				g.events.Emit(events.TypeReputationChecked, txID, g.round, string(g.cfg.Member.ID),
					slog.Int("provider", grp.provider),
					slog.String("reports", events.FormatReports(grp.reports)),
					slog.Int("status", int(status)),
					slog.String("tx", txID))
			}
			if valid {
				records = append(records, ledger.Record{
					Signed: grp.signed,
					Label:  dec.Label,
					Status: tx.StatusValid,
				})
				g.stats.ValidRecorded++
			} else {
				// "For each transaction that is verified by g_j, g_j
				// discards it if the validation result is invalid."
				g.stats.InvalidDiscarded++
			}
			continue
		}
		// Unchecked: record (tx, invalid, unchecked) and open the
		// argue window.
		g.stats.Unchecked++
		records = append(records, ledger.Record{
			Signed:    grp.signed,
			Label:     dec.Label,
			Status:    tx.StatusInvalid,
			Unchecked: true,
		})
		entry := &uncheckedEntry{
			provider: grp.provider,
			id:       id,
			signed:   grp.signed,
			reports:  grp.reports,
		}
		g.unchecked[grp.provider] = append(g.unchecked[grp.provider], entry)
		g.uncheckedByID[id] = entry
		if err := g.expireOld(grp.provider); err != nil {
			return nil, err
		}
	}
	return records, nil
}

// expireOld reveals-as-invalid any unchecked transaction of provider k
// buried under more than ArgueWindow newer unchecked transactions:
// "Every unchecked transaction exceeding this limit will be regarded
// as invalid permanently."
func (g *Governor) expireOld(k int) error {
	q := g.unchecked[k]
	for len(q) > g.cfg.ArgueWindow {
		entry := q[0]
		q = q[1:]
		if entry.revealed {
			continue
		}
		if len(entry.reports) > 0 {
			if _, err := g.table.RecordRevealed(entry.provider, entry.reports, tx.StatusInvalid); err != nil {
				return fmt.Errorf("governor %s expiry reveal: %w", g.cfg.Member.ID, err)
			}
			if g.events != nil {
				txID := entry.id.String()
				g.events.Emit(events.TypeReputationReveal, txID, g.round, string(g.cfg.Member.ID),
					slog.Int("provider", entry.provider),
					slog.String("reports", events.FormatReports(entry.reports)),
					slog.Int("status", int(tx.StatusInvalid)),
					slog.String("tx", txID),
					slog.String("cause", "window_expiry"))
			}
		}
		entry.revealed = true
		delete(g.uncheckedByID, entry.id)
		g.stats.Expired++
	}
	// Also drop already-revealed heads to bound the queue.
	for len(q) > 0 && q[0].revealed {
		q = q[1:]
	}
	g.unchecked[k] = q
	return nil
}

// buildBlock assembles and signs the round's block from records (a
// screenRound result, so at most BlockLimit of them) when this governor
// leads, and returns its frame. Records already committed valid
// elsewhere in the chain are dropped (several governors may hold the
// same argue re-validation pending).
func (g *Governor) buildBlock(records []ledger.Record) ([]byte, error) {
	// The transaction root is built incrementally while the block is
	// packed: each record that survives the duplicate filter is hashed
	// into the Merkle builder as it is placed, so the root is ready the
	// moment the record list is final and the records are never
	// re-walked for hashing (DESIGN.md §4f).
	g.merkle.Reset()
	enc := codec.GetEncoder(256)
	fresh := records[:0]
	for _, r := range records {
		enc.Reset()
		n := r.EncodeLeaf(enc)
		if r.Status == tx.StatusValid && g.committedValid[crypto.Sum(enc.Bytes()[:n])] {
			continue
		}
		fresh = append(fresh, r)
		g.merkle.Add(enc.Bytes())
	}
	enc.Release()
	records = fresh
	b, err := ledger.NewBlockWithRoot(g.store.Height(), g.store.HeadHash(), records, g.cfg.BlockLimit, g.merkle.Root())
	if err != nil {
		return nil, fmt.Errorf("governor %s build block: %w", g.cfg.Member.ID, err)
	}
	h, frame := b.Seal(g.cfg.Member.ID, g.cfg.Member.PrivateKey)
	if g.events != nil {
		node := string(g.cfg.Member.ID)
		g.events.Emit(events.TypeBlockPacked, "", g.round, node,
			slog.Uint64("serial", b.Serial),
			slog.Int("records", len(b.Records)),
			slog.String("hash", h.Short()))
		for _, rec := range b.Records {
			g.events.Emit(events.TypeTxPacked, rec.Signed.ID().String(), g.round, node,
				slog.Uint64("serial", b.Serial),
				slog.Int("status", int(rec.Status)),
				slog.Bool("unchecked", rec.Unchecked))
		}
	}
	return frame, nil
}

// AcceptBlock verifies and appends a proposed block, given as its frame
// (ledger.ReceiveBlock): the proposer must be a roster governor and the
// frame must decode (ErrBadMessage otherwise), the signature must
// verify under the proposer's roster key, the records must hash to the
// block's transaction root (ErrBadMessage otherwise), the block must
// hold at most BlockLimit records (ledger.ErrBlockTooLarge), and the
// chain links must hold (the store enforces serial order and the
// previous hash). Whether the proposer was the round's elected leader
// is the caller's check. A redelivery of an already-committed block
// (same serial, same hash — a duplicated network message) is accepted
// idempotently; a different block at a committed serial is a fork and
// fails with ErrFork.
func (g *Governor) AcceptBlock(frame []byte) error {
	b, rcv, err := ledger.ReceiveBlock(frame, g.merkle)
	if err != nil {
		return fmt.Errorf("governor %s: block frame: %v: %w", g.cfg.Member.ID, err, ErrBadMessage)
	}
	return g.accept(b, rcv, frame)
}

// accept is AcceptBlock for a block decoded from frame with the hashes
// of its bytes; the store writes frame itself.
func (g *Governor) accept(b ledger.Block, rcv ledger.Received, frame []byte) error {
	proposer, ok := g.cfg.Roster.Member(b.Proposer, identity.RoleGovernor)
	if !ok {
		return fmt.Errorf("governor %s: block %d proposed by %q, not a governor: %w",
			g.cfg.Member.ID, b.Serial, b.Proposer, ErrBadMessage)
	}
	h := rcv.Hash // for the signature and the chain link both
	if err := b.VerifyProposer(proposer.PublicKey, h); err != nil {
		return fmt.Errorf("governor %s: %w", g.cfg.Member.ID, err)
	}
	if rcv.Root != b.TxRoot {
		return fmt.Errorf("governor %s: block %d transaction root %s, records hash to %s: %w",
			g.cfg.Member.ID, b.Serial, b.TxRoot.Short(), rcv.Root.Short(), ErrBadMessage)
	}
	if limit := g.cfg.BlockLimit; limit > 0 && len(b.Records) > limit {
		return fmt.Errorf("governor %s: block %d has %d records with b_limit %d: %w",
			g.cfg.Member.ID, b.Serial, len(b.Records), limit, ledger.ErrBlockTooLarge)
	}
	if height := g.store.Height(); b.Serial >= 1 && b.Serial <= height {
		committed := g.store.HeadHash()
		if b.Serial < height {
			blk, err := g.store.Get(b.Serial)
			if err != nil {
				return fmt.Errorf("governor %s: %w", g.cfg.Member.ID, err)
			}
			committed = blk.Hash()
		}
		if committed == h {
			return nil
		}
		return fmt.Errorf("governor %s: block %d hash %s, committed %s: %w",
			g.cfg.Member.ID, b.Serial, h.Short(), committed.Short(), ErrFork)
	}
	if err := g.store.AppendFrame(b, h, frame); err != nil {
		return fmt.Errorf("governor %s: %w", g.cfg.Member.ID, err)
	}
	for i, rec := range b.Records {
		if rec.Status == tx.StatusValid {
			g.committedValid[rcv.IDs[i]] = true
		}
	}
	if g.events != nil {
		node := string(g.cfg.Member.ID)
		g.events.Emit(events.TypeBlockCommitted, "", g.round, node,
			slog.Uint64("serial", b.Serial),
			slog.Int("records", len(b.Records)),
			slog.String("proposer", string(b.Proposer)),
			slog.String("hash", h.Short()))
		for i, rec := range b.Records {
			g.events.Emit(events.TypeTxCommitted, rcv.IDs[i].String(), g.round, node,
				slog.Uint64("serial", b.Serial),
				slog.Int("status", int(rec.Status)))
		}
	}
	return nil
}
