// Command repchain-node runs one alliance node over real TCP, or a
// whole alliance on loopback in demo mode.
//
// Single-node usage (one process per node, shared roster file):
//
//	repchain-keygen -o roster.json
//	repchain-node -roster roster.json -id governor/0 -rounds 10 -epoch 2026-07-04T12:00:00Z
//	repchain-node -roster roster.json -id collector/0 -rounds 10 -epoch 2026-07-04T12:00:00Z
//	...one invocation per node in the roster...
//
// Demo usage (everything in one process, real sockets):
//
//	repchain-node -demo -rounds 6
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/metrics"
	"repchain/internal/reputation"
	"repchain/internal/transport"
	"repchain/internal/tx"
)

var validator = tx.ValidatorFunc(func(t tx.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

func main() {
	var (
		rosterPath = flag.String("roster", "roster.json", "deployment file from repchain-keygen")
		id         = flag.String("id", "", "node ID to run, e.g. governor/0")
		demo       = flag.Bool("demo", false, "run a full alliance on loopback in this process")
		rounds     = flag.Int("rounds", 6, "rounds to run")
		roundDur   = flag.Duration("round", 400*time.Millisecond, "round duration R")
		epoch      = flag.String("epoch", "", "shared start time (RFC 3339); empty = now+1s (demo) ")
		txPerRound = flag.Int("tx", 4, "transactions per provider per round")
		seed       = flag.Int64("seed", 1, "seed for workload randomness")
		stateDir   = flag.String("state", "", "directory persisting governor chain + reputation state across restarts")
		adminAddr  = flag.String("admin-addr", "", "serve /metrics, /healthz, /readyz, /events, and pprof on this address (e.g. 127.0.0.1:9180; empty = off)")
		committee  = flag.Int("committee", 0, "committee index this node's chain belongs to (published as the chain.committee gauge so fleet tooling scores height skew within, not across, committees)")
		eventsCap  = flag.Int("events-cap", 8192, "event ring capacity behind /events, transaction traces included; > 0 also stamps trace context onto outgoing frames so traces stitch across processes (0 = events off)")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")

		mempoolCap = flag.Int("mempool-cap", 0, "governor mempool capacity per provider (0 = unbounded; a provider at its cap loses its oldest)")
		blockLimit = flag.Int("block-limit", 0, "transactions per block, b_limit (0 = unlimited)")

		snapshotEvery = flag.Int("snapshot-every", 0, "write a recovery snapshot and prune chain segments every N rounds (0 = off; needs -state)")
		segmentBytes  = flag.Int64("segment-bytes", 0, "chain segment roll threshold in bytes (0 = 4 MiB default; needs -state)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repchain-node:", err)
		os.Exit(1)
	}

	pool := poolOptions{
		mempoolCap:    *mempoolCap,
		blockLimit:    *blockLimit,
		snapshotEvery: *snapshotEvery,
		segmentBytes:  *segmentBytes,
	}
	obs := obsOptions{
		adminAddr: *adminAddr,
		committee: *committee,
		eventsCap: *eventsCap,
		logger:    logger,
	}
	if err := run(*rosterPath, *id, *demo, *rounds, *roundDur, *epoch, *txPerRound, *seed, *stateDir, obs, pool); err != nil {
		logger.Error("exiting", slog.String("err", err.Error()))
		os.Exit(1)
	}
}

// buildLogger constructs the process logger from the -log-format flag.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// poolOptions bundles the mempool / backpressure / storage flags.
type poolOptions struct {
	mempoolCap    int
	blockLimit    int
	snapshotEvery int
	segmentBytes  int64
}

// obsOptions bundles the observability flags.
type obsOptions struct {
	adminAddr string
	committee int
	eventsCap int
	logger    *slog.Logger
}

func run(rosterPath, id string, demo bool, rounds int, roundDur time.Duration, epochStr string, txPerRound int, seed int64, stateDir string, obs obsOptions, pool poolOptions) error {
	logger := obs.logger
	if stateDir == "" {
		// Both only shape the on-disk chain; without one they would be
		// silently dropped.
		if pool.snapshotEvery != 0 {
			return fmt.Errorf("-snapshot-every needs -state")
		}
		if pool.segmentBytes != 0 {
			return fmt.Errorf("-segment-bytes needs -state")
		}
	}
	var deployment *transport.Deployment
	if demo {
		d, err := demoDeployment(seed)
		if err != nil {
			return err
		}
		deployment = d
	} else {
		d, err := transport.LoadDeployment(rosterPath)
		if err != nil {
			return err
		}
		deployment = d
	}

	//repchain:dettaint-ok the epoch is shared deployment config all nodes must agree on; this default only serves single-process demos, and -epoch pins it for real deployments
	epoch := time.Now().Add(time.Second)
	if epochStr != "" {
		t, err := time.Parse(time.RFC3339, epochStr)
		if err != nil {
			return fmt.Errorf("parse -epoch: %w", err)
		}
		epoch = t
	}
	clock := transport.Clock{Epoch: epoch, Round: roundDur}
	base := transport.RuntimeConfig{
		Deployment: deployment,
		Clock:      clock,
		Rounds:     rounds,
		Params:     reputation.DefaultParams(),
		Validator:  validator,
		TxPerRound: txPerRound,
		ValidFrac:  0.75,
		Seed:       seed,
		StateDir:   stateDir,
		Logger:     logger,

		MempoolCap:    pool.mempoolCap,
		BlockLimit:    pool.blockLimit,
		SnapshotEvery: pool.snapshotEvery,
		SegmentBytes:  pool.segmentBytes,
	}

	// One shared registry/event-log/health for the process. In demo
	// mode that aggregates the whole alliance; in single-node mode
	// readiness only tracks what this process can see — its own
	// governor height, if it is a governor at all. The event log is
	// wired even without an admin endpoint so frames carry trace
	// context standalone; its wall clock is on because this is the TCP
	// runtime, not a deterministic simulation.
	evlog := events.NewLog(obs.eventsCap)
	evlog.EnableWallClock()
	base.Events = evlog

	if obs.adminAddr != "" {
		governors := 0
		if demo {
			for _, spec := range deployment.Nodes {
				if spec.Role == "governor" {
					governors++
				}
			}
		} else if strings.HasPrefix(id, "governor/") {
			governors = 1
		}
		reg := metrics.NewRegistry()
		// Declare which committee's chain this node carries so
		// `repchain-inspect cluster` scores height skew within the
		// committee instead of across unrelated chains.
		reg.Gauge("chain.committee").Set(float64(obs.committee))
		var health *transport.Health
		var ready func() (bool, string)
		if governors > 0 {
			health = transport.NewHealth(governors)
			ready = health.Ready
		}
		base.Metrics = reg
		base.Health = health
		ln, err := net.Listen("tcp", obs.adminAddr)
		if err != nil {
			return fmt.Errorf("admin: listen %s: %w", obs.adminAddr, err)
		}
		srv := &http.Server{Handler: adminMux(reg, evlog, ready), ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
		logger.Info("admin endpoint up",
			slog.String("addr", ln.Addr().String()),
			slog.String("paths", "/metrics /healthz /readyz /events /debug/pprof"))
	}

	if !demo {
		if id == "" {
			return fmt.Errorf("-id is required without -demo")
		}
		cfg := base
		cfg.ID = identity.NodeID(id)
		report, err := transport.RunNode(cfg)
		if err != nil {
			return err
		}
		logReport(logger, id, report)
		return nil
	}

	// Demo: one goroutine per node, real loopback sockets.
	logger.Info("demo alliance starting",
		slog.Int("nodes", len(deployment.Nodes)),
		slog.Int("rounds", rounds),
		slog.Duration("round", roundDur),
		slog.String("epoch", epoch.Format(time.RFC3339)))
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		reports = make(map[string]transport.Report)
		failed  error
	)
	for _, spec := range deployment.Nodes {
		cfg := base
		cfg.ID = identity.NodeID(spec.ID)
		wg.Add(1)
		go func(nodeID string, cfg transport.RuntimeConfig) {
			defer wg.Done()
			report, err := transport.RunNode(cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && failed == nil {
				failed = fmt.Errorf("node %s: %w", nodeID, err)
				return
			}
			reports[nodeID] = report
		}(spec.ID, cfg)
	}
	wg.Wait()
	if failed != nil {
		return failed
	}
	for _, spec := range deployment.Nodes {
		logReport(logger, spec.ID, reports[spec.ID])
	}
	return nil
}

func logReport(logger *slog.Logger, id string, r transport.Report) {
	switch r.Role {
	case "provider":
		logger.Info("provider done", slog.String("node", id),
			slog.Int("rounds", r.Rounds),
			slog.Int("submitted", r.Submitted),
			slog.Int("settled_valid", r.SettledValid),
			slog.Int("pending_valid", r.PendingValid))
	case "collector":
		logger.Info("collector done", slog.String("node", id),
			slog.Int("rounds", r.Rounds),
			slog.Int("uploads", r.Uploads))
	case "governor":
		logger.Info("governor done", slog.String("node", id),
			slog.Int("rounds", r.Rounds),
			slog.Uint64("height", r.Height),
			slog.Int("checked", r.Stats.Checked),
			slog.Int("unchecked", r.Stats.Unchecked),
			slog.Int("argues_accepted", r.Stats.ArguesAccepted))
	}
	if r.SendFailures > 0 {
		logger.Warn("multicasts degraded", slog.String("node", id),
			slog.Int("send_failures", r.SendFailures))
	}
}

// demoDeployment builds a small loopback roster with OS-assigned free
// ports.
func demoDeployment(seed int64) (*transport.Deployment, error) {
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: 4, Collectors: 4, Degree: 2,
	})
	if err != nil {
		return nil, err
	}
	seedBytes := make([]byte, crypto.SeedSize)
	for i := 0; i < 8; i++ {
		seedBytes[i] = byte(seed >> (8 * i))
	}
	roster, err := identity.NewRoster(topo, 3, seedBytes)
	if err != nil {
		return nil, err
	}
	return transport.NewDeployment(nil, roster, "127.0.0.1", 19701)
}
