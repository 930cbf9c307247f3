package transport

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repchain/internal/codec"
	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/trace"
	"repchain/internal/tx"
)

// The wall-clock round runtime. Under the paper's synchrony assumption
// every node owns a loosely synchronized clock, so the three phases of
// a round run at fixed offsets within a shared round duration:
//
//	t0 + 0.00·R   providers broadcast the round's transactions
//	t0 + 0.30·R   collectors label and upload what arrived
//	t0 + 0.55·R   governors screen, then broadcast VRF tickets
//	t0 + 0.75·R   governors elect; the leader broadcasts the block
//	t0 + 0.92·R   everyone adopts the block; providers argue
//	t0 + 1.00·R   next round
//
// Each phase gap exceeds the network's delivery bound Δ provided the
// round duration is chosen accordingly.

// Clock fixes the shared round schedule.
type Clock struct {
	// Epoch is round 1's start time.
	Epoch time.Time
	// Round is the round duration R.
	Round time.Duration
}

// phase offsets as fractions of the round duration.
const (
	phaseUpload = 0.30
	phaseScreen = 0.55
	phaseElect  = 0.75
	phaseAdopt  = 0.92
)

func (c Clock) at(round uint64, frac float64) time.Time {
	start := c.Epoch.Add(time.Duration(round-1) * c.Round)
	return start.Add(time.Duration(frac * float64(c.Round)))
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// frameSender adapts an Endpoint to the node.Sender interface. With a
// failure counter attached it is tolerant: delivery errors are counted
// and swallowed instead of aborting the node's round loop, so an
// unreachable peer degrades throughput rather than wedging the
// alliance (the endpoint has already retried per its RetryPolicy, and
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
// to a freshly dialed endpoint: metrics, retries, inflight bounds,
// structured warnings, and — when PropagateTrace is set — per-frame
// trace-context stamping with node.TraceIDOf as the local trace-ID
// derivation.
func instrumentEndpoint(ep *Endpoint, cfg RuntimeConfig) {
	ep.UseMetrics(cfg.Metrics)
	ep.SetRetryPolicy(cfg.Retry)
	ep.SetInflightLimit(cfg.InflightLimit)
	ep.SetLogger(cfg.Logger)
	if cfg.PropagateTrace {
		ep.EnableTracePropagation(cfg.Tracer, node.TraceIDOf)
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
	// (<id>.chain) and reputation state (<id>.rep) under this
	// directory across restarts.
	StateDir string
	// Retry tunes frame delivery; zero fields fall back to
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// Metrics, when non-nil, replaces the endpoint's private registry
	// and receives node-level metrics, so one admin endpoint can expose
	// every node a process hosts.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives lifecycle spans from this node.
	Tracer *trace.Recorder
	// PropagateTrace stamps per-transaction trace context (trace ID,
	// parent span, send timestamp) onto outgoing frames and emits
	// send/recv spans, so traces stitch across processes. Off, frames
	// carry no trace section.
	PropagateTrace bool
	// Events, when non-nil, receives the structured consensus event
	// stream from this node (governors emit screening, block, and
	// reputation events; the runtime adds leader elections).
	Events *events.Log
	// Logger, when non-nil, receives structured warnings from the
	// endpoint (decode/auth failures, exhausted deliveries) instead of
	// silence.
	Logger *slog.Logger
	// Health, when non-nil, receives governor chain heights after each
	// round for the /readyz probe.
	Health *Health
	// MempoolShards shards each governor's upload mempool by provider
	// index; zero keeps the legacy single unbounded queue.
	MempoolShards int
	// MempoolShardCap bounds each governor mempool shard (0 =
	// unbounded; full shards evict their oldest pending transaction).
	MempoolShardCap int
	// AdmissionFloor sheds verified uploads whose collector reputation
	// weight has decayed below the floor (0 admits everything).
	AdmissionFloor float64
	// BlockLimit caps transactions per block for governors (0 =
	// unlimited; with MempoolShards set, it also caps each round's
	// mempool drain).
	BlockLimit int
	// InflightLimit caps received-but-undrained frames held per peer on
	// every node's endpoint (0 = unbounded). Overflow frames are
	// dropped and counted in transport.inflight_dropped.
	InflightLimit int
	// SnapshotEvery, with StateDir set, writes an atomic recovery
	// snapshot (round counter, reputation table, stake vector) into a
	// governor's chain directory every N rounds and prunes segments
	// behind it, bounding both restart replay and disk usage. Zero
	// disables snapshots.
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
}

// RunNode runs one node to completion of cfg.Rounds rounds.
func RunNode(cfg RuntimeConfig) (Report, error) {
	spec, err := cfg.Deployment.Node(string(cfg.ID))
	if err != nil {
		return Report{}, err
	}
	switch spec.Role {
	case "provider":
		return runProvider(cfg, spec)
	case "collector":
		return runCollector(cfg, spec)
	case "governor":
		return runGovernor(cfg, spec)
	default:
		return Report{}, fmt.Errorf("node %q role %q: %w", cfg.ID, spec.Role, ErrBadDeployment)
	}
}

func memberOf(spec NodeSpec) (identity.Member, error) {
	key, err := spec.PrivateKeyOf()
	if err != nil {
		return identity.Member{}, err
	}
	pub, err := spec.PublicKeyOf()
	if err != nil {
		return identity.Member{}, err
	}
	return identity.Member{
		ID:    identity.NodeID(spec.ID),
		Index: spec.Index,
		Cert: identity.Certificate{
			ID:        identity.NodeID(spec.ID),
			Role:      roleFromString(spec.Role),
			PublicKey: pub,
		},
		PrivateKey: key,
	}, nil
}

func roleFromString(s string) identity.Role {
	switch s {
	case "provider":
		return identity.RoleProvider
	case "collector":
		return identity.RoleCollector
	case "governor":
		return identity.RoleGovernor
	default:
		return 0
	}
}

func idsOf(specs []NodeSpec) []identity.NodeID {
	out := make([]identity.NodeID, len(specs))
	for i, s := range specs {
		out[i] = identity.NodeID(s.ID)
	}
	return out
}

func runProvider(cfg RuntimeConfig, spec NodeSpec) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	mem, err := memberOf(spec)
	if err != nil {
		return Report{}, err
	}
	topo, err := cfg.Deployment.Topology()
	if err != nil {
		return Report{}, err
	}
	collectors := cfg.Deployment.NodesByRole("collector")
	var linked []identity.NodeID
	for _, c := range topo.CollectorsOf(spec.Index) {
		linked = append(linked, identity.NodeID(collectors[c].ID))
	}
	governorIDs := idsOf(cfg.Deployment.NodesByRole("governor"))
	prov := node.NewProvider(mem, nil, linked, governorIDs)
	prov.SetTracer(cfg.Tracer)
	instrumentEndpoint(ep, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(spec.Index)))

	report := Report{Role: "provider"}
	sender := frameSender{ep: ep, failures: &report.SendFailures}
	for round := uint64(1); round <= uint64(cfg.Rounds); round++ {
		prov.SetRound(round)
		sleepUntil(cfg.Clock.at(round, 0))
		for i := 0; i < cfg.TxPerRound; i++ {
			valid := rng.Float64() < cfg.ValidFrac
			payload := []byte{0, byte(i), byte(round)}
			if valid {
				payload[0] = 1
			}
			//repchain:dettaint-ok the submission timestamp is client input the provider signs into its own transaction; replicas treat it as opaque payload, not replica-derived state
			if _, err := prov.Submit("tcp/demo", payload, valid, time.Now().UnixNano(), sender); err != nil {
				return report, err
			}
			report.Submitted++
		}
		// Adopt the round's block and argue. Poll until a block shows up
		// or the round ends; a single drain misses blocks that arrive a
		// few milliseconds after the phase boundary and silently skews
		// the settled/pending accounting.
		sleepUntil(cfg.Clock.at(round, phaseAdopt))
		adoptDeadline := cfg.Clock.at(round+1, 0)
		for observed := false; ; {
			for _, f := range ep.Receive() {
				if f.Kind != network.KindBlock {
					continue
				}
				b, err := ledger.DecodeBlockBytes(f.Payload)
				if err != nil {
					continue
				}
				if _, err := prov.ObserveBlock(b, sender); err != nil {
					return report, err
				}
				observed = true
			}
			if observed || !time.Now().Before(adoptDeadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		report.Rounds++
	}
	report.SettledValid = prov.SettledValid()
	report.PendingValid = prov.PendingValid()
	return report, nil
}

func runCollector(cfg RuntimeConfig, spec NodeSpec) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	mem, err := memberOf(spec)
	if err != nil {
		return Report{}, err
	}
	im, err := cfg.Deployment.BuildIdentityManager()
	if err != nil {
		return Report{}, err
	}
	governorIDs := idsOf(cfg.Deployment.NodesByRole("governor"))
	coll := node.NewCollector(mem, nil, im, cfg.Validator, node.HonestBehavior{}, governorIDs, cfg.Seed+int64(100+spec.Index))
	coll.SetTracer(cfg.Tracer)
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

func runGovernor(cfg RuntimeConfig, spec NodeSpec) (Report, error) {
	ep, err := NewEndpoint(cfg.Deployment, cfg.ID)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = ep.Close() }()

	mem, err := memberOf(spec)
	if err != nil {
		return Report{}, err
	}
	im, err := cfg.Deployment.BuildIdentityManager()
	if err != nil {
		return Report{}, err
	}
	topo, err := cfg.Deployment.Topology()
	if err != nil {
		return Report{}, err
	}
	var store ledger.Store
	var chainFS *ledger.FileStore
	if cfg.StateDir != "" {
		fs, err := ledger.OpenFileStoreOptions(
			filepath.Join(cfg.StateDir, fmt.Sprintf("governor-%d.chain", spec.Index)),
			ledger.StoreOptions{SegmentBytes: cfg.SegmentBytes},
		)
		if err != nil {
			return Report{}, fmt.Errorf("governor chain file: %w", err)
		}
		store, chainFS = fs, fs
		defer func() { _ = fs.Close() }()
	}
	gov, err := node.NewGovernor(node.GovernorConfig{
		Member:          mem,
		IM:              im,
		Topology:        topo,
		Params:          cfg.Params,
		Validator:       cfg.Validator,
		BlockLimit:      cfg.BlockLimit,
		ArgueWindow:     64,
		Seed:            cfg.Seed + int64(200+spec.Index),
		Store:           store,
		MempoolShards:   cfg.MempoolShards,
		MempoolShardCap: cfg.MempoolShardCap,
		AdmissionFloor:  cfg.AdmissionFloor,
		Metrics:         cfg.Metrics,
		Tracer:          cfg.Tracer,
		Events:          cfg.Events,
	})
	if err != nil {
		return Report{}, err
	}
	repPath := ""
	if cfg.StateDir != "" {
		repPath = filepath.Join(cfg.StateDir, fmt.Sprintf("governor-%d.rep", spec.Index))
		if data, err := os.ReadFile(repPath); err == nil {
			if err := gov.Table().RestoreSnapshot(data); err != nil {
				return Report{}, fmt.Errorf("governor reputation state: %w", err)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return Report{}, fmt.Errorf("governor reputation state: %w", err)
		} else if chainFS != nil {
			// No .rep sidecar: fall back to the GovernorState inside
			// the chain's latest ledger snapshot (§4g). Stake state in
			// this runtime comes from the deployment spec, so only the
			// reputation table is applied.
			if snap, found := chainFS.LatestSnapshot(); found && len(snap.App) > 0 {
				st, err := node.DecodeGovernorState(snap.App)
				if err != nil {
					return Report{}, fmt.Errorf("governor ledger snapshot state: %w", err)
				}
				if err := gov.Table().RestoreSnapshot(st.Reputation); err != nil {
					return Report{}, fmt.Errorf("governor ledger snapshot state: %w", err)
				}
			}
		}
	}
	defer func() {
		if repPath != "" {
			_ = os.WriteFile(repPath, gov.Table().Snapshot(), 0o644)
		}
	}()

	governorSpecs := cfg.Deployment.NodesByRole("governor")
	governorIDs := idsOf(governorSpecs)
	providerIDs := idsOf(cfg.Deployment.NodesByRole("provider"))
	govPubs := make([]crypto.PublicKey, len(governorSpecs))
	stakes := make([]uint64, len(governorSpecs))
	for i, gs := range governorSpecs {
		pub, err := gs.PublicKeyOf()
		if err != nil {
			return Report{}, err
		}
		govPubs[i] = pub
		stakes[i] = gs.Stake
		if stakes[i] == 0 {
			stakes[i] = 1
		}
	}
	instrumentEndpoint(ep, cfg)

	// Resume round numbering from a persisted chain (all governors in
	// a deployment must restart together so their heights agree).
	baseRound := gov.Store().Height()
	cfg.Health.SetHeight(string(cfg.ID), baseRound)
	report := Report{Role: "governor"}
	sender := frameSender{ep: ep, failures: &report.SendFailures}

	// Stage latency histograms measure the active work between the
	// schedule's sleeps, not the sleeps themselves. In demo mode the
	// registry is shared, so samples from every governor merge.
	var screenH, electH, packH, commitH *metrics.Histogram
	var heightG *metrics.Gauge
	if cfg.Metrics != nil {
		stages := cfg.Metrics.HistogramVec("round.stage_seconds", metrics.DefBuckets, "stage")
		screenH = stages.With("screen")
		electH = stages.With("elect")
		packH = stages.With("pack")
		commitH = stages.With("commit")
		heightG = cfg.Metrics.Gauge("chain.height")
	}
	observe := func(h *metrics.Histogram, start time.Time) time.Time {
		now := time.Now()
		if h != nil {
			h.Observe(now.Sub(start).Seconds())
		}
		return now
	}
	// Block frames can land in any drain: a fast leader multicasts its
	// block while slower governors are still in their elect drain, and
	// a slow network delivers it after the adopt drain already ran.
	// Discarding those frames forks the governor off the alliance for
	// good, so every drain stashes them here and adoptPending commits
	// the ones signed by the round's (or, at the top of a round, the
	// previous round's) leader.
	var pendingBlocks [][]byte
	prevLeader := -1
	for r := uint64(1); r <= uint64(cfg.Rounds); r++ {
		round := baseRound + r
		gov.SetRound(round)
		// Screen the round's uploads and argues.
		sleepUntil(cfg.Clock.at(r, phaseScreen))
		ticketsFrom := make(map[int][]consensus.Ticket)
		drain := func() error {
			// One HandleBatch call verifies every upload and argue
			// signature of the drained inbox in a single batch pass.
			rest, err := gov.HandleBatch(toNetworkMessages(ep.Receive()))
			if err != nil {
				return err
			}
			for _, m := range rest {
				switch m.Kind {
				case network.KindVRF:
					senderIdx, err := governorIndexOf(m.From)
					if err != nil {
						continue
					}
					ticketRound, ts, err := decodeRoundTickets(m.Payload)
					if err != nil || ticketRound != round {
						continue // stale or malformed ticket batch
					}
					ticketsFrom[senderIdx] = ts
				case network.KindBlock:
					pendingBlocks = append(pendingBlocks, m.Payload)
				}
			}
			return nil
		}
		adoptPending := func(leaderIdx int) error {
			for _, p := range pendingBlocks {
				b, err := ledger.DecodeBlockBytes(p)
				if err != nil || leaderIdx < 0 || b.Proposer != governorIDs[leaderIdx] {
					continue // malformed, or a stale duplicate from an older round
				}
				if err := gov.AcceptBlock(b, governorIDs[leaderIdx], govPubs[leaderIdx]); err != nil {
					return err
				}
			}
			pendingBlocks = pendingBlocks[:0]
			return nil
		}
		stageStart := time.Now()
		if err := drain(); err != nil {
			return report, err
		}
		// Commit a previous-round block that arrived after its adopt
		// window closed, before this round's tickets are made over the
		// chain head.
		if err := adoptPending(prevLeader); err != nil {
			return report, err
		}
		if err := gov.ProcessArgues(); err != nil {
			return report, err
		}
		records, err := gov.ScreenRound()
		if err != nil {
			return report, err
		}
		stageStart = observe(screenH, stageStart)

		// Broadcast leader-election tickets over the previous block.
		prevHash := crypto.ZeroHash
		if head, err := gov.Store().Head(); err == nil {
			prevHash = head.Hash()
		}
		myTickets := consensus.MakeTickets(mem.PrivateKey, prevHash, round, spec.Index, stakes[spec.Index])
		if err := sender.Multicast(mem.ID, governorIDs, network.KindVRF, encodeRoundTickets(round, myTickets)); err != nil {
			return report, err
		}

		// Collect tickets and elect. A single drain at the phase
		// boundary loses the round whenever a peer's ticket frame lands
		// a few milliseconds late (separate processes on a loaded
		// machine), so poll until every governor's batch is in or the
		// collection window closes — the leader still needs the rest of
		// the window to pack and multicast before the adopt phase.
		sleepUntil(cfg.Clock.at(r, phaseElect))
		stageStart = time.Now()
		ticketDeadline := cfg.Clock.at(r, (phaseElect+phaseAdopt)/2)
		for {
			if err := drain(); err != nil {
				return report, err
			}
			if len(ticketsFrom) >= len(governorSpecs) || !time.Now().Before(ticketDeadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		el, err := consensus.NewElection(round, prevHash, govPubs, stakes)
		if err != nil {
			return report, err
		}
		for j := range governorSpecs {
			ts := ticketsFrom[j]
			if err := el.Submit(j, ts); err != nil {
				return report, fmt.Errorf("round %d tickets from governor %d: %w", round, j, err)
			}
		}
		leader, _, err := el.Leader()
		if err != nil {
			return report, err
		}
		stageStart = observe(electH, stageStart)
		if cfg.Tracer != nil {
			cfg.Tracer.Emit(trace.Span{
				Stage: trace.StageElect,
				Node:  string(mem.ID),
				Round: round,
				Attrs: []trace.Attr{{Key: "leader", Value: string(governorIDs[leader])}},
			})
		}
		cfg.Events.Emit(events.TypeLeaderElected, round, string(mem.ID),
			slog.String("leader", string(governorIDs[leader])))

		// The leader proposes; everyone adopts.
		if leader == spec.Index {
			block, err := gov.BuildBlock(records)
			if err != nil {
				return report, err
			}
			targets := append(append([]identity.NodeID(nil), governorIDs...), providerIDs...)
			if err := sender.Multicast(mem.ID, targets, network.KindBlock, block.EncodeBytes()); err != nil {
				return report, err
			}
			observe(packH, stageStart)
		}
		// Adopt. Poll until this round's block is committed or the round
		// ends: losing the leader's block frame to a late arrival would
		// fork this governor off the alliance for good (every later
		// ticket and block verifies against the wrong head).
		sleepUntil(cfg.Clock.at(r, phaseAdopt))
		stageStart = time.Now()
		adoptDeadline := cfg.Clock.at(r+1, 0)
		for {
			if err := drain(); err != nil {
				return report, err
			}
			if err := adoptPending(leader); err != nil {
				return report, err
			}
			if gov.Store().Height() >= round || !time.Now().Before(adoptDeadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		observe(commitH, stageStart)
		prevLeader = leader
		height := gov.Store().Height()
		cfg.Health.SetHeight(string(cfg.ID), height)
		if heightG != nil {
			heightG.Set(float64(height))
		}
		if chainFS != nil && cfg.SnapshotEvery > 0 && height > 0 && height%uint64(cfg.SnapshotEvery) == 0 {
			app := node.GovernorState{
				Round:      height,
				Reputation: gov.Table().Snapshot(),
				Stakes:     stakes,
			}.Encode()
			if _, err := chainFS.WriteSnapshot(app); err != nil {
				return report, fmt.Errorf("governor snapshot: %w", err)
			}
			if cfg.Metrics != nil {
				cfg.Metrics.Counter("ledger.snapshots_total").Inc()
			}
			if repPath != "" {
				if err := os.WriteFile(repPath, gov.Table().Snapshot(), 0o644); err != nil {
					return report, fmt.Errorf("governor reputation state: %w", err)
				}
			}
			pruned, err := chainFS.Prune()
			if err != nil {
				return report, fmt.Errorf("governor prune: %w", err)
			}
			if cfg.Metrics != nil {
				cfg.Metrics.Counter("ledger.segments_pruned_total").Add(int64(pruned))
			}
		}
		report.Rounds++
	}
	report.Height = gov.Store().Height()
	report.Stats = gov.Stats()
	return report, nil
}

// encodeRoundTickets tags a ticket batch with its round so receivers
// can discard stale batches that straggle into the next round.
func encodeRoundTickets(round uint64, ts []consensus.Ticket) []byte {
	inner := consensus.EncodeTickets(ts)
	e := codec.NewEncoder(16 + len(inner))
	e.PutUint64(round)
	e.PutBytes(inner)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeRoundTickets(b []byte) (uint64, []consensus.Ticket, error) {
	d := codec.NewDecoder(b)
	round, err := d.Uint64()
	if err != nil {
		return 0, nil, fmt.Errorf("ticket round: %w", ErrBadFrame)
	}
	inner, err := d.Bytes()
	if err != nil {
		return 0, nil, fmt.Errorf("ticket batch: %w", ErrBadFrame)
	}
	ts, err := consensus.DecodeTickets(inner)
	if err != nil {
		return 0, nil, err
	}
	return round, ts, nil
}

func governorIndexOf(id identity.NodeID) (int, error) {
	const prefix = "governor/"
	s := string(id)
	if len(s) <= len(prefix) || s[:len(prefix)] != prefix {
		return 0, fmt.Errorf("%q: %w", id, ErrUnknownPeer)
	}
	idx := 0
	for _, ch := range s[len(prefix):] {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("%q: %w", id, ErrUnknownPeer)
		}
		idx = idx*10 + int(ch-'0')
	}
	return idx, nil
}
