package transport

import (
	"fmt"
	"log/slog"
	"math/rand"
	"path/filepath"
	"time"

	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// The wall-clock round runtime. Under the paper's synchrony assumption
// every node owns a loosely synchronized clock. Two marks of a shared
// round duration R pace the round; the others are deadlines:
//
//	t0 + 0.00·R    pace: providers broadcast the round's transactions
//	t0 + 0.30·R    pace: collectors label and upload what arrived
//	t0 + 0.55·R    deadline: governors screen, then broadcast VRF tickets
//	t0 + 0.835·R   deadline: governors elect; the leader broadcasts the block
//	t0 + 1.00·R    deadline: governors adopt the block and run the stake
//	               transform; providers adopt it and argue; next round
//
// A governor takes each step the moment its inputs are on file — every
// collector's upload batch for the round, every staked governor's ticket
// batch, the leader's block — so in the common case the block follows
// the uploads by the work alone. A deadline only bounds the wait for an
// input that is late or lost; the gap before each exceeds the network's
// delivery bound Δ provided the round duration is chosen accordingly.

// Clock fixes the shared round schedule.
type Clock struct {
	// Epoch is round 1's start time.
	Epoch time.Time
	// Round is the round duration R.
	Round time.Duration
}

// Offsets within a round, as fractions of its duration: phaseUpload
// paces the collectors, the other two are governor deadlines. The third
// deadline is the next round's start.
const (
	phaseUpload    = 0.30
	deadlineScreen = 0.55
	deadlineElect  = 0.835
)

func (c Clock) at(round uint64, frac float64) time.Time {
	start := c.Epoch.Add(time.Duration(round-1) * c.Round)
	return start.Add(time.Duration(frac * float64(c.Round)))
}

func sleepUntil(t time.Time) {
	<-time.After(time.Until(t))
}

// await calls step, which drains ep and reports whether what it waits
// for is in, until step says so or the deadline passes; in between it
// blocks until a frame reaches ep or the deadline does. It returns the
// time spent in step, not blocked.
func await(ep *Endpoint, deadline time.Time, step func() (bool, error)) (time.Duration, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	var busy time.Duration
	for {
		start := time.Now()
		done, err := step()
		now := time.Now()
		busy += now.Sub(start)
		if err != nil || done || !now.Before(deadline) {
			return busy, err
		}
		select {
		case <-ep.Arrived():
		case <-timer.C:
		}
	}
}

// frameSender adapts an Endpoint to the node.Sender interface. With a
// failure counter attached it is tolerant: delivery errors are counted
// and swallowed instead of aborting the node's round loop, so an
// unreachable peer degrades throughput rather than wedging the
// alliance (the endpoint has already retried per its retry policy, and
// Multicast is best-effort across recipients).
type frameSender struct {
	ep       *Endpoint
	failures *int
}

var _ node.Sender = frameSender{}

// Multicast implements node.Sender; the from argument is implied by
// the endpoint's identity (frames are tagged under its pairwise keys).
func (s frameSender) Multicast(_ identity.NodeID, to []identity.NodeID, kind string, payload []byte) error {
	err := s.ep.Multicast(to, kind, payload)
	if err == nil {
		return nil
	}
	if s.failures != nil {
		*s.failures++
		return nil
	}
	return err
}

// instrumentEndpoint applies the runtime's observability configuration
// to a freshly dialed endpoint: metrics, structured warnings, and —
// when the node records events — per-frame trace-context stamping with
// node.TraceIDOf as the local trace-ID derivation.
func instrumentEndpoint(ep *Endpoint, cfg RuntimeConfig) {
	ep.UseMetrics(cfg.Metrics)
	ep.SetLogger(cfg.Logger)
	if cfg.Events != nil {
		ep.EnableTracePropagation(cfg.Events, node.TraceIDOf)
	}
}

func toNetworkMessages(frames []Frame) []network.Message {
	out := make([]network.Message, len(frames))
	for i, f := range frames {
		out[i] = network.Message{From: f.From, Kind: f.Kind, Payload: f.Payload}
	}
	return out
}

// RuntimeConfig assembles one node's TCP runtime.
type RuntimeConfig struct {
	// Deployment describes the whole alliance.
	Deployment *Deployment
	// ID selects which node this process runs.
	ID identity.NodeID
	// Clock is the shared round schedule.
	Clock Clock
	// Rounds is how many rounds to run before stopping.
	Rounds int
	// Params tunes the reputation mechanism (governors).
	Params reputation.Params
	// Validator is validate(tx), shared by collectors and governors.
	Validator tx.Validator
	// TxPerRound is how many transactions a provider submits per
	// round.
	TxPerRound int
	// ValidFrac is the provider workload's valid fraction.
	ValidFrac float64
	// Seed drives local randomness.
	Seed int64
	// StateDir, when non-empty, persists a governor's chain replica
	// and checkpointed reputation state (governor-<j>.chain) under this
	// directory across restarts.
	StateDir string
	// Metrics, when non-nil, replaces the endpoint's private registry
	// and receives node-level metrics, so one admin endpoint can expose
	// every node a process hosts.
	Metrics *metrics.Registry
	// Events, when non-nil, receives this node's event stream: its
	// transactions' lifecycle facts under their trace IDs, and for a
	// governor the screening, election, block and reputation events.
	// It also turns on trace propagation: outgoing frames carry
	// per-transaction trace context (trace ID, parent event seq, send
	// timestamp) and both ends of a hop emit hop.sent/hop.received, so
	// traces stitch across processes. When nil, frames carry no
	// trace section.
	Events *events.Log
	// Logger, when non-nil, receives structured warnings from the
	// endpoint (decode/auth failures, exhausted deliveries) instead of
	// silence.
	Logger *slog.Logger
	// Health, when non-nil, receives governor chain heights after each
	// round for the /readyz probe.
	Health *Health
	// MempoolCap bounds each governor's upload mempool per provider (0 =
	// unbounded; a provider at its cap has its oldest pending
	// transaction evicted).
	MempoolCap int
	// BlockLimit is b_limit for governors (0 = unlimited): each round a
	// governor drains at most BlockLimit transactions from its mempool,
	// the rest waiting for later blocks, and refuses a block with more.
	BlockLimit int
	// SnapshotEvery, with StateDir set, writes an atomic recovery
	// snapshot (round counter, reputation table, stake vector) into a
	// governor's chain directory each time its chain has grown N
	// blocks past the last one, and prunes segments behind it,
	// bounding both restart replay and disk usage. Zero disables
	// snapshots.
	SnapshotEvery int
	// SegmentBytes overrides the chain segment roll threshold in
	// bytes; zero keeps the ledger default (4 MiB).
	SegmentBytes int64
}

// Report summarizes a node's run.
type Report struct {
	// Role is the node's role name.
	Role string
	// Rounds is how many rounds completed.
	Rounds int
	// Height is the final chain height (governors).
	Height uint64
	// Stats holds governor screening counters (governors).
	Stats node.GovernorStats
	// Uploads counts uploaded labeled transactions (collectors).
	Uploads int
	// Submitted and SettledValid count provider activity (providers).
	Submitted    int
	SettledValid int
	PendingValid int
	// SendFailures counts multicasts that exhausted their delivery
	// attempts to at least one recipient (all roles).
	SendFailures int
	// StakeBlock is the last stake-transform block applied (governors;
	// nil if none).
	StakeBlock *consensus.StakeBlock
}

// RunNode runs one node to completion of cfg.Rounds rounds.
func RunNode(cfg RuntimeConfig) (Report, error) {
	spec, err := cfg.Deployment.Node(string(cfg.ID))
	if err != nil {
		return Report{}, err
	}
	roster, err := cfg.Deployment.Roster()
	if err != nil {
		return Report{}, err
	}
	// The roster holds every deployment node under its role, so the
	// lookup cannot miss.
	role := identity.RoleNamed(spec.Role)
	me, _ := roster.Member(cfg.ID, role)
	switch role {
	case identity.RoleProvider:
		return runProvider(cfg, roster, me)
	case identity.RoleCollector:
		return runCollector(cfg, roster, me)
	default:
		return runGovernor(cfg, roster, me)
	}
}

func runProvider(cfg RuntimeConfig, roster *identity.Roster, me identity.Member) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	var linked []identity.NodeID
	for _, c := range roster.Topology.CollectorsOf(me.Index) {
		linked = append(linked, roster.Collectors[c].ID)
	}
	prov := node.NewProvider(me, nil, linked, identity.IDs(roster.Governors))
	prov.SetEvents(cfg.Events)
	instrumentEndpoint(ep, cfg)
	// A block frame that does not decode is skipped, and counted the
	// way the governor stepper counts one.
	undecodable := ep.Metrics().CounterVec("node.blocks_ignored_total", "reason").With("decode")
	rng := rand.New(rand.NewSource(cfg.Seed + int64(me.Index)))

	report := Report{Role: "provider"}
	sender := frameSender{ep: ep, failures: &report.SendFailures}
	for round := uint64(1); round <= uint64(cfg.Rounds); round++ {
		prov.SetRound(round)
		sleepUntil(cfg.Clock.at(round, 0))
		items := make([]node.Submission, cfg.TxPerRound)
		for i := range items {
			valid := rng.Float64() < cfg.ValidFrac
			payload := []byte{0, byte(i), byte(round)}
			if valid {
				payload[0] = 1
			}
			items[i] = node.Submission{Kind: "tcp/demo", Payload: payload, Valid: valid}
		}
		//repchain:dettaint-ok the submission timestamp is client input the provider signs into its own transactions; replicas treat it as opaque payload, not replica-derived state
		for _, signed := range prov.SignBatch(items, time.Now().UnixNano()) {
			if err := prov.Broadcast(signed, sender); err != nil {
				return report, err
			}
			report.Submitted++
		}
		// Adopt the round's block and argue: from the broadcast until a
		// block shows up or the round ends.
		_, err := await(ep, cfg.Clock.at(round+1, 0), func() (bool, error) {
			observed := false
			for _, f := range ep.Receive() {
				if f.Kind != network.KindBlock {
					continue
				}
				b, err := ledger.DecodeBlockBytes(f.Payload)
				if err != nil {
					undecodable.Inc()
					continue
				}
				if _, err := prov.ObserveBlock(b, sender); err != nil {
					return false, err
				}
				observed = true
			}
			return observed, nil
		})
		if err != nil {
			return report, err
		}
		report.Rounds++
	}
	report.SettledValid = prov.SettledValid()
	report.PendingValid = prov.PendingValid()
	return report, nil
}

func runCollector(cfg RuntimeConfig, roster *identity.Roster, me identity.Member) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	coll := node.NewCollector(me, nil, roster, cfg.Validator, node.HonestBehavior{}, cfg.Seed+int64(100+me.Index))
	coll.SetEvents(cfg.Events)
	instrumentEndpoint(ep, cfg)

	report := Report{Role: "collector"}
	sender := frameSender{ep: ep, failures: &report.SendFailures}
	for round := uint64(1); round <= uint64(cfg.Rounds); round++ {
		coll.SetRound(round)
		sleepUntil(cfg.Clock.at(round, phaseUpload))
		n, err := coll.ProcessBatch(toNetworkMessages(ep.Receive()), sender)
		if err != nil {
			return report, err
		}
		report.Uploads += n
		report.Rounds++
	}
	return report, nil
}

func runGovernor(cfg RuntimeConfig, roster *identity.Roster, me identity.Member) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	var store ledger.Store
	if cfg.StateDir != "" {
		fs, err := ledger.OpenFileStoreOptions(
			filepath.Join(cfg.StateDir, fmt.Sprintf("governor-%d.chain", me.Index)),
			ledger.StoreOptions{SegmentBytes: cfg.SegmentBytes},
		)
		if err != nil {
			return Report{}, fmt.Errorf("governor chain file: %w", err)
		}
		store = fs
		defer func() { _ = fs.Close() }()
	}
	gov, err := node.NewGovernor(node.GovernorConfig{
		Member:      me,
		Roster:      roster,
		Params:      cfg.Params,
		Validator:   cfg.Validator,
		BlockLimit:  cfg.BlockLimit,
		ArgueWindow: node.DefaultArgueWindow,
		Seed:        cfg.Seed + int64(200+me.Index),
		Store:       store,
		MempoolCap:  cfg.MempoolCap,
		Metrics:     cfg.Metrics,
		Events:      cfg.Events,
	})
	if err != nil {
		return Report{}, err
	}

	govPubs := make([]crypto.PublicKey, len(roster.Governors))
	stakes := make([]uint64, len(roster.Governors))
	for i, g := range roster.Governors {
		govPubs[i] = g.PublicKey
		spec, _ := cfg.Deployment.Node(string(g.ID)) // the roster came from these specs
		stakes[i] = max(spec.Stake, 1)
	}
	// The round stepper is the protocol; this function only decides
	// when each step runs. The deployment spec's stakes seed a chain
	// with no checkpoint; a restart resumes the checkpointed ones.
	rs := node.NewGovernorRound(gov, identity.IDs(roster.Governors), govPubs, identity.IDs(roster.Providers), stakes)
	if err := rs.Restore(); err != nil {
		return Report{}, err
	}
	// Leave a checkpoint as fresh as the run (a no-op without StateDir).
	defer func() { _ = rs.Checkpoint(nil, false) }()
	instrumentEndpoint(ep, cfg)

	// Resume round numbering from a persisted chain (all governors in
	// a deployment must restart together so their heights agree).
	baseRound := gov.Store().Height()
	cfg.Health.SetHeight(string(cfg.ID), baseRound)
	report := Report{Role: "governor"}
	sender := frameSender{ep: ep, failures: &report.SendFailures}

	// Stage latency histograms measure each step's work — ingesting its
	// inputs as they arrive, then the step — not the wait for them. In
	// demo mode the registry is shared, so samples from every governor
	// merge.
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	stages := reg.HistogramVec("round.stage_seconds", metrics.DefBuckets, "stage")
	heightG := reg.Gauge("chain.height")
	// wait ingests every arrival until done reports true or the deadline
	// passes, and returns the time spent ingesting and testing. What an
	// arrival holds that the step does not need, the stepper keeps.
	wait := func(deadline time.Time, done func() (bool, error)) (time.Duration, error) {
		return await(ep, deadline, func() (bool, error) {
			if err := rs.Ingest(toNetworkMessages(ep.Receive())); err != nil {
				return false, err
			}
			return done()
		})
	}
	// observe records a step that began at start, after busy spent
	// ingesting its inputs.
	observe := func(stage string, busy time.Duration, start time.Time) {
		stages.With(stage).Observe((busy + time.Since(start)).Seconds())
	}
	for r := uint64(1); r <= uint64(cfg.Rounds); r++ {
		round := baseRound + r
		rs.Begin(round)
		// Screen the round's uploads and argues once every collector's
		// batch is in, then broadcast leader-election tickets over the
		// chain head. After a restart on a persisted chain this governor
		// numbers its rounds past the collectors', so the deadline screens.
		busy, err := wait(cfg.Clock.at(r, deadlineScreen), func() (bool, error) {
			return rs.UploadsComplete(), nil
		})
		if err != nil {
			return report, err
		}
		start := time.Now()
		if err := rs.Screen(); err != nil {
			return report, err
		}
		observe("screen", busy, start)
		stakes := rs.Stakes()
		if err := rs.SendTickets(stakes[me.Index], sender); err != nil {
			return report, err
		}

		// Elect once every staked governor's ticket batch is in, or at the
		// deadline, which leaves the leader the rest of the round to pack
		// and multicast. A batch still missing fails the election and
		// stops the node: rejoining needs state transfer.
		busy, err = wait(cfg.Clock.at(r, deadlineElect), func() (bool, error) {
			return rs.TicketsComplete(stakes), nil
		})
		if err != nil {
			return report, err
		}
		start = time.Now()
		leader, err := rs.Elect(stakes)
		if err != nil {
			return report, err
		}
		observe("elect", busy, start)

		// The leader proposes; everyone adopts.
		if leader == me.Index {
			start = time.Now()
			if _, err := rs.Propose(sender); err != nil {
				return report, err
			}
			observe("pack", 0, start)
		}
		// Adopt once this round's block is committed, or give up at the
		// round's end; a frame later than that is committed by the next
		// round's Screen, before tickets are made over the head.
		roundEnd := cfg.Clock.at(r+1, 0)
		busy, err = wait(roundEnd, rs.Adopt)
		stages.With("commit").Observe(busy.Seconds())
		if err != nil {
			return report, err
		}
		// The stake transform, for what the round has left of its time.
		if _, err := wait(roundEnd, func() (bool, error) { return rs.StakeStep(sender) }); err != nil {
			return report, err
		}
		height := gov.Store().Height()
		cfg.Health.SetHeight(string(cfg.ID), height)
		heightG.Set(float64(height))
		if err := rs.MaybeCheckpoint(cfg.SnapshotEvery); err != nil {
			return report, err
		}
		report.Rounds++
	}
	report.Height = gov.Store().Height()
	report.Stats = gov.Stats()
	report.StakeBlock = rs.StakeBlock()
	return report, nil
}
