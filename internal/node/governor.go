package node

import (
	"errors"
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
	// open is set while the group is pending in groups.
	open bool
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
	// block's recipients: the other governors, then the providers.
	governorIDs []identity.NodeID
	pubs        []crypto.PublicKey
	blockTo     []identity.NodeID

	// pending ingestion state: transactions grouped by ID, with the
	// screening order — arrival order — kept in pool.
	groups map[crypto.Hash]*groupedTx
	pool   *mempool.Pool[crypto.Hash]
	// spare holds screened groups, report slices and all, for admitUpload
	// to reuse; admitted, the groups opened since the round began, which
	// begin makes copy their payloads if still pending (DESIGN.md §4f).
	spare, admitted []*groupedTx

	argues []queuedArgue
	// in is handleBatch's scratch.
	in intake
	// uploadRound[c] is the latest round collector c's verified upload
	// batches were tagged with.
	uploadRound []uint64

	// pendingRecords carries argue re-validations that did not fit the
	// round's BlockLimit into later rounds, pendingIDs their transaction
	// IDs. Every governor processes every argue, so the carry is the same
	// on every governor.
	pendingRecords []ledger.Record
	pendingIDs     []crypto.Hash

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

	// Scratch of screenRound, reused every round: the IDs it drains from
	// the pool, the validate(tx) calls its second pass fans out, the
	// drained transactions between its passes, and the window expiries
	// whose events wait for their transaction's turn.
	drained   []crypto.Hash
	vals      validations
	screening []screenItem
	expired   []*uncheckedEntry

	stats  GovernorStats
	events *events.Log

	// Pre-resolved per-collector checked-screening counters (indexed by
	// global collector index), mempool evictions and upload refusals by
	// reason.
	scrChecked []*metrics.Counter
	mpEvicted  *metrics.Counter
	upRejected *metrics.CounterVec

	// merkle is the incremental transaction-root builder pack
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
	// records are the round's screened records, for the leader to pack,
	// and recordIDs their transaction IDs: scratch reused every round,
	// emptied once packed or the round ends. committedRecords counts
	// the records of the block commit appended last.
	records          []ledger.Record
	recordIDs        []crypto.Hash
	committedRecords int
	// tickets[j] is the first batch governor j sent for this round, and
	// next[j] the first for the round after, from a peer already there.
	tickets, next    [][]consensus.Ticket
	filed, nextFiled []bool
	// blocks stashes block frames until the step that knows which
	// leader's signature to demand of them; adopting and adoptingIDs are
	// where receive decodes one, reused every round.
	blocks             [][]byte
	adopting           []ledger.Record
	adoptingIDs        []crypto.Hash
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
	peers := slices.DeleteFunc(identity.IDs(cfg.Roster.Governors), func(id identity.NodeID) bool { return id == cfg.Member.ID })
	g := &Governor{
		cfg:             cfg,
		table:           table,
		store:           store,
		fs:              fs,
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		reg:             reg,
		governorIDs:     identity.IDs(cfg.Roster.Governors),
		pubs:            make([]crypto.PublicKey, m),
		blockTo:         append(peers, identity.IDs(cfg.Roster.Providers)...),
		groups:          make(map[crypto.Hash]*groupedTx),
		pool:            mempool.New[crypto.Hash](cfg.Roster.Topology.Providers(), cfg.MempoolCap),
		unchecked:       make(map[int][]*uncheckedEntry),
		uncheckedByID:   make(map[crypto.Hash]*uncheckedEntry),
		committedValid:  make(map[crypto.Hash]bool),
		processedArgues: make(map[crypto.Hash]bool),
		vals:            validations{v: cfg.Validator},
		uploadRound:     make([]uint64, cfg.Roster.Topology.Collectors()),
		events:          cfg.Events,
		scrChecked:      make([]*metrics.Counter, cfg.Roster.Topology.Collectors()),
		mpEvicted:       reg.Counter("mempool.evicted_total"),
		upRejected:      reg.CounterVec("node.uploads_rejected_total", "reason"),
		merkle:          crypto.NewMerkleBuilder(),
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

// Close waits for the checkpoint write in flight, returning its error
// if no round end or Checkpoint has, and releases the governor's replica
// without checkpointing it; Checkpoint first to make the run durable.
// Idempotent, and a no-op in memory.
func (g *Governor) Close() error {
	if g.fs == nil {
		return nil
	}
	err := g.settleCheckpoint()
	if cerr := g.fs.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("%s: %w", g.ID(), cerr))
	}
	return err
}

// ID returns the governor's node ID.
func (g *Governor) ID() identity.NodeID { return g.cfg.Member.ID }

// Table exposes the governor's reputation table for inspection.
func (g *Governor) Table() *reputation.Table { return g.table }

// Store exposes the governor's ledger replica.
func (g *Governor) Store() ledger.Store { return g.store }

// Stats returns the governor's counters.
func (g *Governor) Stats() GovernorStats { return g.stats }

// CommittedRecords is the record count of the block the governor
// committed last, so a driver need not decode its head; 0 before its
// first commit.
func (g *Governor) CommittedRecords() int { return g.committedRecords }

// intake is handleBatch's scratch, reused every Step (DESIGN.md §4f):
// the items and IDs an upload decodes into, and the signature checks.
// What a governor keeps past the Step copies out of it (admitUpload, the
// queued argues), and handleBatch empties it, so it pins no frame.
type intake struct {
	items  []tx.UploadItem
	ids    []crypto.Hash
	checks sigChecks
}

// emptied clears s up to its capacity and returns it with length 0: a
// slice kept for reuse then pins nothing it pointed to.
func emptied[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// handleBatch ingests a batch of delivered messages in arrival order and
// returns the messages it did not consume, in that order. It is the
// governor's only ingest path: each collector upload batch runs
// verify(c_i, Tx) per the paper (handleUpload) and each provider argue
// that authenticates is queued (checkArgue). Every signature is checked
// once, where its message arrives, through crypto.CachedVerify, and a
// provider batch once per Step whichever uploads or argues carry it; so
// forge penalties, admission shedding, mempool insertion, report
// grouping and argue queuing happen in item order, and the governor's
// state is a function of the item sequence alone — one batch of N and N
// batches of one leave it byte-identical (DESIGN.md §4f).
func (g *Governor) handleBatch(msgs []network.Message) ([]network.Message, error) {
	defer func() {
		g.in.items = emptied(g.in.items)
		g.in.checks.reset()
	}()
	var rest []network.Message
	for _, m := range msgs {
		switch m.Kind {
		case network.KindCollectorBatch:
			if err := g.handleUpload(m); err != nil {
				return rest, err
			}
		case network.KindArgue:
			if a, ok := g.checkArgue(m); ok {
				g.argues = append(g.argues, a)
			} else {
				g.stats.ArguesRejected++
			}
		default:
			rest = append(rest, m)
		}
	}
	return rest, nil
}

// handleUpload runs verify(c_i, Tx) on one collector upload batch: the
// collector's signature over the batch under its roster key, and for
// each item its leaf in its provider batch, that batch's signature and
// the provider's link; it admits each item that passes.
//
// Attribution (Algorithm 3 case 1): a batch from a sender that is not a
// roster collector is refused unscored. Any other batch that fails as a
// whole — undecodable, sender is not the claimed collector, bad batch
// signature — admits nothing and costs the sender one forge penalty.
// Inside an authenticated batch each bad item (provider not in the
// roster, not its batch's leaf, its batch's signature fails, provider
// not linked to the collector) costs one penalty and the remaining
// items are admitted. An authenticated batch, empty or not, files its
// round under its collector for uploadsIn.
func (g *Governor) handleUpload(m network.Message) error {
	coll, isCollector := g.cfg.Roster.Member(m.From, identity.RoleCollector)
	if !isCollector {
		// An uploader outside the collector role cannot be scored.
		g.countRejected("not_collector")
		return nil
	}
	in := &g.in
	batch, rcv, err := tx.DecodeUploadBatchBytes(m.Payload, in.items[:0], in.ids[:0])
	switch {
	case err != nil:
		return g.rejectUpload("decode", coll.Index)
	case batch.Collector != m.From:
		// The upload must come from the collector that signed it.
		return g.rejectUpload("sender_mismatch", coll.Index)
	}
	in.items, in.ids = batch.Items, rcv.IDs
	batch.EncodeSigning(in.checks.signing(), rcv.Digest)
	if in.checks.verify(coll.PublicKey, batch.Sig) != nil {
		return g.rejectUpload("batch_sig", coll.Index)
	}
	g.uploadRound[coll.Index] = max(g.uploadRound[coll.Index], batch.Round)
	for k := range batch.Items {
		s := &batch.Items[k].Signed
		prov, ok := g.cfg.Roster.Member(s.Tx.Provider, identity.RoleProvider)
		switch {
		case !ok || in.checks.provider(s, rcv.IDs[k], prov.PublicKey) != nil:
			err = g.rejectUpload("item_provider_sig", coll.Index)
		case !g.cfg.Roster.Linked(prov.Index, coll.Index):
			err = g.rejectUpload("item_unlinked", coll.Index)
		default:
			err = g.admitUpload(coll.Index, prov.Index, rcv.IDs[k], &batch.Items[k])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkArgue authenticates a provider's argue: only the authoring
// provider may argue its own transaction, which must be its batch's
// leaf under a good batch signature, and the argue's own signature must
// hold.
func (g *Governor) checkArgue(m network.Message) (queuedArgue, bool) {
	msg, err := DecodeArgueBytes(m.Payload)
	if err != nil || msg.Signed.Tx.Provider != m.From {
		return queuedArgue{}, false
	}
	prov, ok := g.cfg.Roster.Member(m.From, identity.RoleProvider)
	if !ok {
		return queuedArgue{}, false
	}
	id := msg.Signed.ID()
	checks := &g.in.checks
	if checks.provider(&msg.Signed, id, prov.PublicKey) != nil {
		return queuedArgue{}, false
	}
	encodeArgueSigning(checks.signing(), id, msg.Serial)
	return queuedArgue{msg: msg, id: id}, checks.verify(prov.PublicKey, msg.Sig) == nil
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
				if grp, ok := g.groups[old]; ok {
					grp.open = false
					delete(g.groups, old)
				}
				g.stats.EvictedTxs++
				g.mpEvicted.Inc()
			}
		}
		if _, err := g.pool.Add(providerIdx, id); err != nil {
			return fmt.Errorf("governor %s mempool: %w", g.cfg.Member.ID, err)
		}
		grp = g.openGroup(labeled.Signed, providerIdx)
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

// openGroup returns a pending group for s from provider k, reusing a
// screened one when there is one, so a transaction's group and report
// slice cost no allocation once the governor has screened a round.
func (g *Governor) openGroup(s tx.SignedTx, k int) *groupedTx {
	var grp *groupedTx
	if n := len(g.spare); n > 0 {
		grp, g.spare = g.spare[n-1], g.spare[:n-1]
	} else {
		grp = &groupedTx{reports: make([]reputation.Report, 0, len(g.cfg.Roster.Topology.CollectorsOf(k)))}
	}
	*grp = groupedTx{signed: s, provider: k, reports: grp.reports[:0], open: true}
	g.admitted = append(g.admitted, grp)
	return grp
}

// ownCarried gives every upload still pending as its round ends its own
// copy of its payload, so that no upload frame outlives its round for
// the sake of a carried transaction. (A group screened and reopened in
// one round is listed twice and copies twice.)
func (g *Governor) ownCarried() {
	for _, grp := range g.admitted {
		if grp.open {
			grp.signed = grp.signed.Own()
		}
	}
	clear(g.admitted)
	g.admitted = g.admitted[:0]
}

// queuedArgue is an authenticated argue awaiting processArgues, with
// the ID of its transaction.
type queuedArgue struct {
	msg ArgueMsg
	id  crypto.Hash
}

// processArgues resolves queued argues (Algorithm 2 lines 34–39): the
// governor re-validates the disputed transaction; a valid one is
// appended (tx, valid) to a later block. When the governor itself
// left the transaction unchecked, the reveal also updates reputations
// with case 3. Every governor processes every argue — the chain
// records the leader's screening, so a governor that happened to check
// the transaction locally must still be ready to re-include it when it
// next leads.
//
// It runs in one pass, in arrival order: an argue pass holds about one
// argue, too few to fan validate(tx) out as screenRound does.
func (g *Governor) processArgues() error {
	for _, a := range g.argues {
		if g.processedArgues[a.id] || g.committedValid[a.id] {
			g.stats.ArguesRejected++
			continue
		}
		g.processedArgues[a.id] = true
		var txID string
		if g.events != nil {
			txID = a.id.String()
			g.events.Emit(events.TypeTxArgued, txID, g.round, string(g.cfg.Member.ID),
				slog.Uint64("serial", a.msg.Serial))
		}

		status := tx.StatusInvalid
		if g.cfg.Validator.Validate(a.msg.Signed.Tx) {
			status = tx.StatusValid
			g.pendingRecords = append(g.pendingRecords, ledger.Record{
				Signed: a.msg.Signed.Own(), // may wait rounds for room in a block
				Label:  tx.LabelValid,
				Status: tx.StatusValid,
			})
			g.pendingIDs = append(g.pendingIDs, a.id)
			g.stats.ArguesAccepted++
			g.stats.Mistakes++ // recorded invalid, actually valid
		} else {
			g.stats.ArguesRejected++
		}
		// Case-3 reveal only applies where this governor holds the
		// unchecked entry (it knows who reported what).
		if entry, ok := g.uncheckedByID[a.id]; ok && !entry.revealed {
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
			delete(g.uncheckedByID, a.id)
		}
	}
	clear(g.argues)
	g.argues = g.argues[:0]
	return nil
}

// screenItem is one drained transaction between screenRound's passes:
// its group, its draw and, for a checked draw, the index of its verdict
// in vals or, for an unchecked one, the end of its window expiries in
// expired.
type screenItem struct {
	grp     *groupedTx
	id      crypto.Hash
	dec     reputation.Decision
	check   int
	expired int
}

// screenRound runs Algorithm 2 over a batch drained from the
// governor's mempool and returns the records destined for the next
// block, with their transaction IDs: pending argue re-validations
// first, then the screened uploads, at most BlockLimit in all. Whatever
// does not fit stays queued — the re-validations in pendingRecords, the
// uploads in the pool — on every governor alike, so the next leader,
// whoever it is, commits it. Reputation updates (cases 2 and 3) happen
// here too.
//
// The drain is the determinism pivot: entries come out in upload
// arrival order, which the bus fixes by sequence number, so screening
// consumes the governor's RNG stream identically at any worker count.
// It runs in three passes (DESIGN §4a): the draws in drain order (draw,
// check coin, and an unchecked draw's argue window, whose expiries move
// the weights later draws read), validate(tx) for every checked draw
// across cores, then the checked updates, counters, records and events
// in drain order. The reorder is exact: a draw never reads the
// misreport scores, the only thing a checked update changes.
func (g *Governor) screenRound() ([]ledger.Record, []crypto.Hash, error) {
	// The records and IDs go into the governor's scratch, the carried
	// ones first, so no slice is made anew each round; a carry past the
	// block limit is copied back out rather than left in the scratch.
	records, ids := append(g.records[:0], g.pendingRecords...), append(g.recordIDs[:0], g.pendingIDs...)
	g.pendingRecords, g.pendingIDs = emptied(g.pendingRecords), g.pendingIDs[:0]
	uploads := 0 // Drain(0) takes everything
	if limit := g.cfg.BlockLimit; limit > 0 {
		if len(records) >= limit {
			g.pendingRecords, g.pendingIDs = append(g.pendingRecords, records[limit:]...), append(g.pendingIDs, ids[limit:]...)
			clear(records[limit:])
			return records[:limit], ids[:limit], nil
		}
		uploads = limit - len(records)
	}

	g.drained = g.pool.AppendDrain(g.drained[:0], uploads)
	drained := g.drained
	records = slices.Grow(records, len(drained))
	ids = slices.Grow(ids, len(drained))
	g.screening = slices.Grow(g.screening, len(drained))
	g.vals.begin(len(drained))
	derr := g.drawAll(drained)
	g.vals.run()
	records, ids, err := g.applyScreened(records, ids)
	// The screened groups go back for admitUpload to reuse, emptied so
	// that they pin no upload frame.
	for i := range g.screening {
		grp := g.screening[i].grp
		*grp = groupedTx{reports: grp.reports}
		g.spare = append(g.spare, grp)
	}
	clear(g.screening)
	g.screening = g.screening[:0]
	clear(g.expired)
	g.expired = g.expired[:0]
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, nil, err
	}
	return records, ids, nil
}

// drawAll is screenRound's first pass: in drain order, it takes each
// drained transaction's group, draws for it, and queues a checked draw's
// transaction in vals or opens an unchecked one's argue window. It stops
// at the first failure; the transactions before it are in screening.
func (g *Governor) drawAll(drained []crypto.Hash) error {
	for _, id := range drained {
		pending, ok := g.groups[id]
		if !ok {
			continue
		}
		delete(g.groups, id)
		it := screenItem{grp: pending, id: id}
		if silent := len(g.cfg.Roster.Topology.CollectorsOf(it.grp.provider)) - len(it.grp.reports); silent > 0 {
			g.stats.SilentReports += silent
		}
		var err error
		if it.dec, err = g.table.Screen(g.rng, it.grp.provider, it.grp.reports); err != nil {
			return fmt.Errorf("governor %s screen: %w", g.cfg.Member.ID, err)
		}
		if it.dec.Check {
			it.check = g.vals.add(&it.grp.signed.Tx)
		} else {
			// The argue window keeps the entry for up to U newer ones: it
			// copies the payload and the reports rather than pin the upload
			// frame and share the group's reused report slice.
			entry := &uncheckedEntry{
				provider: it.grp.provider,
				id:       id,
				signed:   it.grp.signed.Own(),
				reports:  slices.Clone(it.grp.reports),
			}
			g.unchecked[it.grp.provider] = append(g.unchecked[it.grp.provider], entry)
			g.uncheckedByID[id] = entry
			err = g.expireOld(it.grp.provider)
			it.expired = len(g.expired)
		}
		g.screening = append(g.screening, it)
		if err != nil {
			return err
		}
	}
	return nil
}

// applyScreened is screenRound's third pass: in drain order, it applies
// each screened transaction's checked update, counts it, appends its
// record and ID to records and ids, and emits its events — with an
// unchecked one's window expiries — where one in-order pass would.
func (g *Governor) applyScreened(records []ledger.Record, ids []crypto.Hash) ([]ledger.Record, []crypto.Hash, error) {
	expiredFrom := 0
	for i := range g.screening {
		it := &g.screening[i]
		if it.dec.Check {
			g.scrChecked[it.dec.Collector].Inc()
		}
		// One hex encode per transaction, and none with the log off: the
		// ID string feeds up to two events below.
		var txID string
		if g.events != nil {
			txID = it.id.String()
			g.events.Emit(events.TypeUploadScreened, txID, g.round, string(g.cfg.Member.ID),
				slog.String("tx", txID),
				slog.Int("collector", it.dec.Collector),
				slog.Bool("checked", it.dec.Check),
				slog.Int("label", int(it.dec.Label)))
		}
		if it.dec.Check {
			g.stats.Checked++
			valid := g.vals.valid(it.check)
			status := tx.StatusFor(valid)
			if err := g.table.RecordChecked(it.grp.provider, it.grp.reports, status); err != nil {
				return nil, nil, fmt.Errorf("governor %s checked update: %w", g.cfg.Member.ID, err)
			}
			if g.events != nil {
				g.events.Emit(events.TypeReputationChecked, txID, g.round, string(g.cfg.Member.ID),
					slog.Int("provider", it.grp.provider),
					slog.String("reports", events.FormatReports(it.grp.reports)),
					slog.Int("status", int(status)),
					slog.String("tx", txID))
			}
			if valid {
				records = append(records, ledger.Record{
					Signed: it.grp.signed,
					Label:  it.dec.Label,
					Status: tx.StatusValid,
				})
				ids = append(ids, it.id)
				g.stats.ValidRecorded++
			} else {
				// "For each transaction that is verified by g_j, g_j
				// discards it if the validation result is invalid."
				g.stats.InvalidDiscarded++
			}
			continue
		}
		// Unchecked: record (tx, invalid, unchecked); drawAll opened the
		// argue window.
		g.stats.Unchecked++
		records = append(records, ledger.Record{
			Signed:    it.grp.signed,
			Label:     it.dec.Label,
			Status:    tx.StatusInvalid,
			Unchecked: true,
		})
		ids = append(ids, it.id)
		for _, entry := range g.expired[expiredFrom:it.expired] {
			g.emitExpiry(entry)
		}
		expiredFrom = it.expired
	}
	return records, ids, nil
}

// expireOld reveals-as-invalid any unchecked transaction of provider k
// buried under more than ArgueWindow newer unchecked transactions:
// "Every unchecked transaction exceeding this limit will be regarded
// as invalid permanently." With the event log on, it lists each reveal
// in expired for applyScreened to emit in turn.
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
				g.expired = append(g.expired, entry)
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

// emitExpiry emits the reputation.reveal event of entry's window expiry.
func (g *Governor) emitExpiry(entry *uncheckedEntry) {
	txID := entry.id.String()
	g.events.Emit(events.TypeReputationReveal, txID, g.round, string(g.cfg.Member.ID),
		slog.Int("provider", entry.provider),
		slog.String("reports", events.FormatReports(entry.reports)),
		slog.Int("status", int(tx.StatusInvalid)),
		slog.String("tx", txID),
		slog.String("cause", "window_expiry"))
}

// pack assembles and signs the round's block from records and their
// transaction IDs (a screenRound result, so at most BlockLimit of them)
// when this governor leads, commits it and returns its frame. Records
// already committed valid elsewhere in the chain are dropped (several
// governors may hold the same argue re-validation pending). The leader
// commits the frame it sealed under the hash it signed, so no node
// decodes a block it proposed (DESIGN.md §4f).
func (g *Governor) pack(records []ledger.Record, ids []crypto.Hash) ([]byte, error) {
	// The transaction root is built incrementally while the block is
	// packed: each record that survives the duplicate filter is hashed
	// into the Merkle builder as it is placed, so the root is ready the
	// moment the record list is final and the records are never
	// re-walked for hashing (DESIGN.md §4f).
	g.merkle.Reset()
	enc := codec.GetEncoder(256)
	fresh, freshIDs := records[:0], ids[:0]
	for i, r := range records {
		if r.Status == tx.StatusValid && g.committedValid[ids[i]] {
			continue
		}
		enc.Reset()
		r.EncodeLeaf(enc)
		fresh, freshIDs = append(fresh, r), append(freshIDs, ids[i])
		g.merkle.Add(enc.Bytes())
	}
	enc.Release()
	b, err := ledger.NewBlockWithRoot(g.store.Height(), g.store.HeadHash(), fresh, g.cfg.BlockLimit, g.merkle.Root())
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
		for i, rec := range b.Records {
			g.events.Emit(events.TypeTxPacked, freshIDs[i].String(), g.round, node,
				slog.Uint64("serial", b.Serial),
				slog.Int("status", int(rec.Status)),
				slog.Bool("unchecked", rec.Unchecked))
		}
	}
	return frame, g.commit(b, h, freshIDs, frame)
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
	b, rcv, err := g.receive(frame)
	if err == nil {
		err = g.accept(b, rcv, frame)
	} else {
		err = fmt.Errorf("governor %s: block frame: %v: %w", g.cfg.Member.ID, err, ErrBadMessage)
	}
	g.adopting = emptied(g.adopting)
	return err
}

// receive decodes a block frame into adopting and adoptingIDs, the
// governor's scratch: the block's records are views into frame held in
// that scratch, which a caller empties once done (DESIGN.md §4f).
func (g *Governor) receive(frame []byte) (ledger.Block, ledger.Received, error) {
	b, rcv, err := ledger.ReceiveBlock(frame, g.merkle, g.adopting[:0], g.adoptingIDs[:0])
	if err == nil {
		g.adopting, g.adoptingIDs = b.Records, rcv.IDs
	}
	return b, rcv, err
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
	return g.commit(b, h, rcv.IDs, frame)
}

// commit is the one commit path, a proposer's (pack) and a receiver's
// (accept) alike: it appends block b, of hash h, to the replica as
// frame, files each valid record's ID (ids[i] is b.Records[i]'s) in
// committedValid and emits block.committed and tx.committed.
func (g *Governor) commit(b ledger.Block, h crypto.Hash, ids []crypto.Hash, frame []byte) error {
	if err := g.store.AppendFrame(b, h, frame); err != nil {
		return fmt.Errorf("governor %s: %w", g.cfg.Member.ID, err)
	}
	g.committedRecords = len(b.Records)
	for i, rec := range b.Records {
		if rec.Status == tx.StatusValid {
			g.committedValid[ids[i]] = true
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
			g.events.Emit(events.TypeTxCommitted, ids[i].String(), g.round, node,
				slog.Uint64("serial", b.Serial),
				slog.Int("status", int(rec.Status)))
		}
	}
	return nil
}
