package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repchain"
	"repchain/internal/identity"
	"repchain/internal/metrics"
)

func topologySpec(s spec) identity.TopologySpec {
	return identity.TopologySpec{Providers: s.l, Collectors: s.n, Degree: s.r}
}

// adversaries is inproc-adversarial's collector conduct: c0 and c1
// misreport 30 %, c2 misreports 10 %, c3 forges, c4 conceals, c5–c7
// are honest.
var adversaries = []repchain.CollectorBehavior{
	{Misreport: 0.3}, {Misreport: 0.3}, {Misreport: 0.1},
	{Forge: 0.5}, {Conceal: 0.2}, {}, {}, {},
}

// buildSystem assembles the workload's chain. dir is the durable
// workload's chain directory (unused elsewhere).
func buildSystem(s spec, seed int64, dir string) (system, error) {
	opts := []repchain.Option{
		repchain.WithTopology(s.l, s.n, s.r),
		repchain.WithGovernors(s.m),
		repchain.WithSeed(seed),
	}
	switch s.name {
	case "inproc-steady":
		opts = append(opts, repchain.WithValidator(trivialValidator))
	case "inproc-durable-small":
		opts = append(opts,
			repchain.WithValidator(trivialValidator),
			repchain.WithChainDir(dir),
			repchain.WithSnapshotEvery(8),
			repchain.WithSegmentBytes(64<<10))
	case "inproc-adversarial":
		opts = append(opts,
			repchain.WithValidator(costlyValidator),
			repchain.WithCollectorBehaviors(adversaries...),
			repchain.WithReputationParams(0.9, 0.5, 1.1, 2.0))
	case "cluster-k4":
		opts = append(opts, repchain.WithValidator(trivialValidator), repchain.WithCommittees(s.k))
		c, err := repchain.NewCluster(opts...)
		if err != nil {
			return nil, err
		}
		return &clusterSystem{c: c}, nil
	case "inproc-chaos":
		return newEngineSystem(s, seed)
	default:
		return nil, fmt.Errorf("no in-process system for workload %q", s.name)
	}
	c, err := repchain.New(opts...)
	if err != nil {
		return nil, err
	}
	return &chainSystem{c: c, providers: s.l}, nil
}

// runner is the closed loop: one client that submits a round's
// transactions, runs the round, and accounts the committed blocks with
// the clock stopped.
type runner struct {
	s    spec
	o    options
	sys  system
	acct *account
	gen  *generator
	rec  *recorder
	res  *result

	round      int      // harness round, warm-up included
	seenHeight []uint64 // per chain: last block accounted

	// block is the block of the measured window the next cycle belongs
	// to; -1 outside the window (warm-up, drain, after the reopen).
	block       int
	blocks      []block
	speed       *speedometer
	cycleWall   time.Duration // Σ submit+RunRound, the measured time
	submitWall  time.Duration
	cpu         time.Duration
	roundMS     []float64
	roundErrors int
	pendingMax  int
}

// cycle runs one round. Only submit and RunRound are on the clock;
// generating payloads before and accounting blocks after are not.
func (r *runner) cycle(submit bool) {
	r.round++
	trace := fmt.Sprintf("%s/%d", r.s.name, r.round)
	root := r.rec.start("round", trace, 0)
	var batches []batch
	var resent [][]*txState // resent[i] != nil: batches[i] re-sends these
	if submit {
		batches = r.gen.round(r.s.l, r.s.txPerRound/r.s.l)
		resent = make([][]*txState, len(batches))
		if r.s.retryAfter > 0 {
			for k, sts := range r.acct.overdue(r.round, r.s.l) {
				if len(sts) == 0 {
					continue
				}
				b := batch{provider: k}
				for _, st := range sts {
					b.txs = append(b.txs, st.tx)
				}
				batches, resent = append(batches, b), append(resent, sts)
			}
		}
	}
	ids := make([][]repchain.TxID, len(batches))
	handed := make([]time.Time, len(batches))

	cpu0, t0 := cpuTime(), time.Now()
	sp := r.rec.start("facade.submit", trace, root)
	for i, b := range batches {
		handed[i] = time.Now()
		// A refusal shows as a short prefix; it is counted below, never
		// treated as a harness error.
		ids[i], _ = r.sys.submit(b)
	}
	r.rec.end(sp)
	t1 := time.Now()
	sp = r.rec.start("facade.run_round", trace, root)
	err := r.sys.runRound()
	t2, cpu1 := time.Now(), cpuTime()
	r.rec.end(sp)

	sp = r.rec.start("harness.account", trace, root)
	if err != nil {
		// Counted, never fatal; the first few are shown.
		if r.roundErrors++; r.roundErrors <= 3 {
			fmt.Fprintf(os.Stderr, "%s: round %d: %v\n", r.s.name, r.round, err)
		}
	}
	for i, b := range batches {
		if resent[i] != nil {
			for j, id := range ids[i] {
				r.acct.addRetry(id, resent[i][j], r.round)
			}
			continue
		}
		r.acct.attempted += len(b.txs)
		r.acct.refused += len(b.txs) - len(ids[i])
		for j, id := range ids[i] {
			cross := b.crossTo != nil && b.crossTo[j] >= 0
			r.acct.add(id, b.provider, b.txs[j], cross, r.block, handed[i], r.round)
		}
	}
	for c := 0; c < r.sys.chains(); c++ {
		for h := r.sys.height(c); r.seenHeight[c] < h; {
			serial := r.seenHeight[c] + 1
			recs, err := r.sys.block(c, serial)
			if err != nil {
				r.res.problem("chain %d block %d unreadable: %v", c, serial, err)
				r.seenHeight[c] = h
				break
			}
			r.acct.observe(c, serial, recs, t2, r.round)
			r.seenHeight[c] = serial
		}
	}
	if pr, ok := r.sys.(interface{ pendingReceipts() int }); ok {
		if n := pr.pendingReceipts(); n > r.pendingMax {
			r.pendingMax = n
		}
	}
	if submit {
		r.acct.roundDone()
	}
	if r.block >= 0 {
		r.cycleWall += t2.Sub(t0)
		r.submitWall += t1.Sub(t0)
		r.cpu += cpu1 - cpu0
		r.roundMS = append(r.roundMS, ms(t2.Sub(t1)))
		if r.block == len(r.blocks) {
			r.blocks = append(r.blocks, block{})
		}
		b := &r.blocks[r.block]
		b.Rounds++
		b.wall += t2.Sub(t0)
		b.cpu += cpu1 - cpu0
	}
	r.rec.end(sp)
	r.rec.end(root)
	// Off the workload's clock: read the host's speed.
	r.speed.tick()
}

// drain runs rounds without submissions so argues, carried-over
// transactions and cross-committee receipts can land.
func (r *runner) drain() {
	pr, xshard := r.sys.(interface{ pendingReceipts() int })
	for i := 0; i < drainRounds || (xshard && i < drainMaxXsh && pr.pendingReceipts() > 0); i++ {
		r.cycle(false)
	}
}

// runInproc runs one closed-loop workload in this process.
func runInproc(s spec, o options) (*result, error) {
	res := newResult(s, o)
	var dir string
	if s.durable {
		tmp, err := os.MkdirTemp(o.outDir, "chain-")
		if err != nil {
			return nil, fmt.Errorf("chain dir: %w", err)
		}
		dir = tmp
		defer os.RemoveAll(dir)
	}
	sys, err := buildSystem(s, o.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", s.name, err)
	}
	r := &runner{
		s: s, o: o, sys: sys, res: res,
		acct:       newAccount(),
		gen:        newGenerator(o.seed, s.validShare, s.crossShare),
		seenHeight: make([]uint64, sys.chains()),
		block:      -1,
		speed:      newSpeedometer(speedEvery),
	}
	r.acct.digestAtRounds = o.digestAt
	r.acct.retryAfter = s.retryAfter
	if o.traced {
		r.rec = newRecorder(processStart)
	}
	// A reopened durable chain replaces r.sys; close whichever is live.
	defer func() { _ = r.sys.close() }()

	for i := 0; i < s.warmup; i++ {
		r.cycle(true)
	}
	// Set-up is processor work: reported at the reference speed, without
	// the time the speed units themselves took.
	res.EndToEnd["setup_s"] = (time.Since(processStart) - r.speed.spent).Seconds() * atReference(r.speed.take(), s.speedShare)
	if o.setupOnly {
		return res, nil
	}

	// Measured window.
	if a, ok := sys.(*engineSystem); ok {
		a.armed = true
	}
	snap0, stats0 := sys.snapshot(), sys.stats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	rounds := s.measuredRounds(o)
	perBlock := blockLen(s, rounds)
	// A timed run on a much slower machine stops at half again its time
	// rather than overrun the driver's budget; its counts then differ.
	limit := time.Duration(1.5 * o.seconds * o.scale * float64(time.Second))
	for i := 0; ; i++ {
		done := i >= rounds || (o.seconds > 0 && time.Since(start) >= limit)
		if a, ok := sys.(*engineSystem); ok && !a.wholeCycles() {
			done = false
		}
		if done {
			break
		}
		r.block = i / perBlock
		r.cycle(true)
		if (i+1)%perBlock == 0 {
			r.blocks[r.block].Speed = r.speed.take()
		}
	}
	if last := len(r.blocks) - 1; last >= 0 && r.blocks[last].Speed == 0 {
		r.blocks[last].Speed = r.speed.take() // a last, shorter block
	}
	r.block = -1
	if a, ok := sys.(*engineSystem); ok {
		a.armed = false // the drain runs fault-free
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&mem1)
	snap1, stats1 := sys.snapshot(), sys.stats()
	if r.acct.digestAtCapture == "" {
		r.acct.digestAtCapture = r.acct.digestHex()
		r.acct.digestAtRounds = r.acct.digestRounds
	}
	r.drain()

	if s.durable {
		if err := r.reopen(dir); err != nil {
			res.problem("reopen: %v", err)
		}
		res.PerLayer["ledger.disk_bytes_per_tx"] = ratio(float64(dirBytes(dir)), float64(len(r.acct.txs)))
	}
	window := deltaSnapshot(snap0, snap1)
	r.finish(window, stats0, stats1, &mem0, &mem1, wall)
	runProbes(s, o, r.rec, res)
	if o.traced {
		path, err := r.rec.writeTrace(o.outDir, s.name, o.seed, counterDeltas(window))
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	return res, nil
}

// reopen closes the durable chain, rebuilds it on the same directory,
// times the recovery until the height is back, and runs ten more rounds
// to show the recovered chain still commits.
func (r *runner) reopen(dir string) error {
	want := r.sys.height(0)
	trace := r.s.name + "/reopen"
	sp := r.rec.start("ledger.close", trace, 0)
	err := r.sys.close()
	r.rec.end(sp)
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	sp = r.rec.start("ledger.reopen", trace, 0)
	t0 := time.Now()
	sys, err := buildSystem(r.s, r.o.seed, dir)
	if err == nil && sys.height(0) != want {
		err = fmt.Errorf("height %d after reopen, want %d", sys.height(0), want)
	}
	r.res.PerLayer["ledger.reopen_ms"] = ms(time.Since(t0))
	r.rec.end(sp)
	if err != nil {
		return err
	}
	r.sys = sys
	for i := 0; i < 10; i++ {
		r.cycle(true)
	}
	r.drain()
	return nil
}

// finish applies the correctness gate and fills in every metric the run
// itself can measure. window is the registry's change over the measured
// window.
func (r *runner) finish(window metrics.Snapshot, stats0, stats1 repchain.GovernorStats, mem0, mem1 *runtime.MemStats, wall time.Duration) {
	res, a := r.res, r.acct
	es, chaos := r.sys.(*engineSystem)

	// Correctness gate.
	if err := r.sys.verify(); err != nil {
		res.problem("VerifyChain: %v", err)
	}
	if a.unknown > 0 {
		res.problem("%d committed records were never submitted", a.unknown)
	}
	failed, lostValid, duplicates := a.failures()
	if duplicates > 0 {
		res.problem("%d transactions committed twice", duplicates)
	}
	// The Validity property, from the providers' side. (The durable
	// chain's providers are rebuilt at reopen and only know what was
	// submitted since; the other systems do not expose PendingValid.)
	if cs, ok := r.sys.(*chainSystem); ok && !r.s.durable {
		if pv := cs.pendingValid(); pv != lostValid {
			res.problem("PendingValid sums to %d, harness counts %d valid transactions not recorded valid", pv, lostValid)
		}
	}
	shares, err := r.sys.revenueShares()
	if err != nil {
		res.problem("RevenueShares: %v", err)
	}
	honest := 0.0
	for c, split := range shares {
		sum := 0.0
		for i, v := range split {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.problem("chain %d revenue share %d is %v", c, i, v)
			}
			sum += v
			if i >= r.s.honestFrom {
				honest += v
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			res.problem("chain %d revenue shares sum to %v", c, sum)
		}
	}
	// Every successful round commits one block per chain, so a replica
	// set that lost or skipped a block shows as a height shortfall.
	if !chaos {
		want := uint64(r.round - r.roundErrors)
		for c := 0; c < r.sys.chains(); c++ {
			if h := r.sys.height(c); h != want {
				res.problem("chain %d height %d after %d good rounds", c, h, want)
			}
		}
	}
	if tallest, ok := r.sys.snapshot().Gauges["chain.height"]; ok && r.s.k == 1 && tallest != float64(r.sys.height(0)) {
		res.problem("tallest replica is at height %v, governor 0 at %d", tallest, r.sys.height(0))
	}

	res.Attempted, res.Failed = a.attempted, failed
	res.Samples, res.Rounds, res.RoundErrors = len(a.latencyMS), len(r.roundMS), r.roundErrors
	res.Rerecorded, res.Resent = a.rerecorded, a.retries
	res.Digest, res.DigestRounds = a.digestAtCapture, a.digestAtRounds

	// End to end: the medians of the blocks' values, each at the reference
	// speed (blocks.go, speed.go).
	deriveBlocks(r.blocks, a.blockLatencyMS, r.s)
	res.Blocks = r.blocks
	e := res.EndToEnd
	e["commit_latency_p50_ms"] = blockMedian(r.blocks, func(b *block) float64 { return b.P50MS })
	e["commit_latency_p95_ms"] = blockMedian(r.blocks, func(b *block) float64 { return b.P95MS })
	e["throughput_tps"] = blockMedian(r.blocks, func(b *block) float64 { return b.TPS })
	e["cpu_us_per_tx"] = blockMedian(r.blocks, func(b *block) float64 { return b.CPUUS })
	e["peak_rss_mb"] = peakRSSMB()

	// Per layer.
	p := res.PerLayer
	txs := float64(a.measuredTx)
	deriveLayers(p, window, stats0, stats1, txs)
	p["mempool.refused_share"] = ratio(float64(a.refused), float64(a.attempted))
	p["core.round_p50_ms"] = percentile(r.roundMS, 50)
	p["core.round_p95_ms"] = percentile(r.roundMS, 95)
	p["core.submit_us_per_tx"] = ratio(us(r.submitWall), txs)
	p["core.alloc_bytes_per_tx"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), txs)
	p["core.allocs_per_tx"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), txs)
	p["core.gc_pause_ms_per_s"] = ratio(float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, wall.Seconds())
	p["core.cores_busy"] = ratio(r.cpu.Seconds(), r.cycleWall.Seconds())
	p["bench.host_speed"] = blockMedian(r.blocks, func(b *block) float64 { return b.Speed })
	p["reputation.honest_share"] = honest / float64(len(shares))
	if r.s.crossShare > 0 {
		p["shard.cross_share"] = ratio(float64(a.measuredCross), txs)
		p["shard.receipt_rounds_p50"] = percentile(a.receiptRounds, 50)
		p["shard.receipts_pending_max"] = float64(r.pendingMax)
	}
	if chaos {
		p["chaos.rounds_aborted"] = float64(window.Counters["chaos.rounds_aborted"])
		p["chaos.blocks_synced"] = float64(window.Counters["chaos.blocks_synced"])
		p["chaos.recovery_rounds"] = mean(es.recoveries)
		// Every re-send stands for a submission the faults swallowed.
		p["chaos.lost_tx_share"] = ratio(float64(a.retries), float64(a.attempted+a.retries))
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
