package transport

import (
	"log/slog"
	"math/rand"
	"time"

	"repchain/internal/consensus"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// Clock fixes the shared round schedule (node.Clock, whose doc has it):
// every node keeps its own deadlines on it, a provider's being its
// round's start.
type Clock node.Clock

func (c Clock) at(round uint64, frac float64) time.Time { return node.Clock(c).At(round, frac) }

// waitFrame blocks until a frame reaches ep or until passes.
func waitFrame(ep *Endpoint, until time.Time) {
	timer := time.NewTimer(time.Until(until))
	defer timer.Stop()
	select {
	case <-ep.Arrived():
	case <-timer.C:
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
	// Health, when non-nil, receives a governor's chain height after each
	// step for the /readyz probe.
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
	// snapshots. A governor refuses it without StateDir.
	SnapshotEvery int
	// SegmentBytes overrides the chain segment roll threshold in
	// bytes; zero keeps the ledger default (4 MiB). A governor refuses
	// it without StateDir.
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
	prov := node.NewProvider(me, (*node.Clock)(&cfg.Clock), linked, identity.IDs(roster.Governors))
	prov.SetEvents(cfg.Events)
	instrumentEndpoint(ep, cfg)
	prov.SetMetrics(ep.Metrics())
	rng := rand.New(rand.NewSource(node.Seed(cfg.Seed, me)))

	// The demo generator stages each round's transactions, timestamped
	// with the round's start, once the round before has signed its own:
	// the Step that opens the round signs them.
	report := Report{Role: "provider"}
	var staged uint64 // rounds staged so far
	err = stepLoop(cfg, ep, prov, 0, &report, func(p node.Progress) {
		if p.Phase == node.PhaseSign || staged > p.Round || staged == uint64(cfg.Rounds) {
			return
		}
		staged++
		items := make([]node.Submission, cfg.TxPerRound)
		for i := range items {
			valid := rng.Float64() < cfg.ValidFrac
			payload := []byte{0, byte(i), byte(staged)}
			if valid {
				payload[0] = 1
			}
			items[i] = node.Submission{Kind: "tcp/demo", Payload: payload, Valid: valid}
		}
		txs, ids := prov.Stage(items, cfg.Clock.at(staged, 0).UnixNano())
		for i := range txs {
			prov.Queue(txs[i], ids[i])
		}
		report.Submitted += len(txs)
	})
	report.SettledValid = prov.SettledValid()
	report.PendingValid = prov.PendingValid()
	return report, err
}

func runCollector(cfg RuntimeConfig, roster *identity.Roster, me identity.Member) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	coll := node.NewCollector(me, node.Clock(cfg.Clock), roster, cfg.Validator, node.Behavior{}, node.Seed(cfg.Seed, me))
	coll.SetEvents(cfg.Events)
	instrumentEndpoint(ep, cfg)

	report := Report{Role: "collector"}
	err = stepLoop(cfg, ep, coll, 0, &report, func(node.Progress) {})
	st := coll.Stats()
	report.Uploads = st.Uploaded + st.Forged
	return report, err
}

func runGovernor(cfg RuntimeConfig, roster *identity.Roster, me identity.Member) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	// The deployment spec's stakes seed a chain with no checkpoint; a
	// restart resumes the checkpointed ones.
	stakes := make([]uint64, len(roster.Governors))
	for i, g := range roster.Governors {
		spec, _ := cfg.Deployment.Node(string(g.ID)) // the roster came from these specs
		stakes[i] = max(spec.Stake, 1)
	}
	gov, err := node.NewGovernor(node.GovernorConfig{
		Member:        me,
		Clock:         node.Clock(cfg.Clock),
		Roster:        roster,
		Params:        cfg.Params,
		Validator:     cfg.Validator,
		BlockLimit:    cfg.BlockLimit,
		ArgueWindow:   node.DefaultArgueWindow,
		Seed:          node.Seed(cfg.Seed, me),
		Stakes:        stakes,
		StateDir:      cfg.StateDir,
		SegmentBytes:  cfg.SegmentBytes,
		SnapshotEvery: cfg.SnapshotEvery,
		MempoolCap:    cfg.MempoolCap,
		Metrics:       cfg.Metrics,
		Events:        cfg.Events,
	})
	if err != nil {
		return Report{}, err
	}
	// Leave a checkpoint as fresh as the run (a no-op without StateDir),
	// then release the replica.
	defer func() {
		_ = gov.Checkpoint(nil, false)
		_ = gov.Close()
	}()
	instrumentEndpoint(ep, cfg)

	// Rounds resume past a persisted chain (a deployment's governors
	// restart together).
	report := Report{Role: "governor"}
	heightG := ep.Metrics().Gauge("chain.height")
	err = stepLoop(cfg, ep, gov, gov.Store().Height(), &report, func(node.Progress) {
		cfg.Health.SetHeight(string(cfg.ID), gov.Store().Height())
		heightG.Set(float64(gov.Store().Height()))
	})
	report.Height = gov.Store().Height()
	report.Stats = gov.Stats()
	report.StakeBlock = gov.StakeBlock()
	return report, err
}

// stepLoop is the one loop of every node: hand it what arrived and the
// time, then block until a frame arrives or its next deadline, until it
// finishes round base+cfg.Rounds; the clock stops at that round's end.
// Each Step is timed into round.stage_seconds; stepped runs after it,
// with where it left the node.
func stepLoop(cfg RuntimeConfig, ep *Endpoint, n node.Stepper, base uint64, report *Report, stepped func(node.Progress)) error {
	last, stop := base+uint64(cfg.Rounds), cfg.Clock.at(uint64(cfg.Rounds)+1, 0)
	sender := frameSender{ep: ep, failures: &report.SendFailures}
	timer := node.StageTimer{Stages: ep.Metrics().HistogramVec("round.stage_seconds", metrics.DefBuckets, "stage")}
	p := node.Progress{Round: base}
	for p.Round < last || p.Phase != node.PhaseOver {
		//repchain:dettaint-ok the wall clock is the deployment's shared round schedule (the paper's synchrony assumption): it tells the node which round it is in and which deadlines have passed, as the epoch does every node; what a step computes comes from the messages it was handed
		now := time.Now()
		if now.After(stop) {
			now = stop
		}
		var err error
		if p, err = timer.Step(p, func() (node.Progress, error) { return n.Step(now, toNetworkMessages(ep.Receive()), sender) }); err != nil {
			return err
		}
		stepped(p)
		if p.WakeAt.After(time.Now()) {
			waitFrame(ep, p.WakeAt)
		}
	}
	report.Rounds = cfg.Rounds
	return nil
}
