package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repchain"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/transport"
	"repchain/internal/tx"
)

// tcpRound is the wall-clock round length; with the workload's 320
// transactions per round the offered load is 320 tx/s. The runtime gives
// a governor 0.285 of the round between the start of screening and the
// ticket deadline, and every governor exits when one misses it. At the
// issue's 400 ms that is 114 ms, which the scoping box's stalls overran in
// one run in twenty-five in quiet minutes and one in three in busy ones;
// a second's round leaves 285 ms.
const tcpRound = time.Second

// tcpSpeedEvery is how often the generator reads the host's speed: ten
// times a round.
const tcpSpeedEvery = tcpRound / 10

// schedule is the open-loop generator's timetable: transaction i is
// due at epoch + i·interval whatever happened to the ones before it.
type schedule struct {
	epoch    time.Time
	interval time.Duration
	round    time.Duration
}

func (s schedule) due(i int) time.Time { return s.epoch.Add(time.Duration(i) * s.interval) }

// lateness is how long after its due time a transaction was actually
// handed to the provider; a generator that keeps up stays near zero.
func lateness(due, sent time.Time) time.Duration {
	if sent.Before(due) {
		return 0
	}
	return sent.Sub(due)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

var portCursor atomic.Int64

// freePortBase finds n consecutive free loopback ports by probing, in
// a range below the kernel's ephemeral ports and away from the demo's
// 19701.
func freePortBase(n int) (int, error) {
	// Successive calls in one process start from different candidates,
	// so two deployments built at once do not probe the same ports.
	start := 20000 + (os.Getpid()*37+int(portCursor.Add(1))*101)%10000
	for try := 0; try < 200; try++ {
		base := start + try*(n+3)
		if base+n >= 32000 {
			base = 20000 + (base+n)%10000
		}
		free := true
		for p := base; p < base+n && free; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				free = false
				break
			}
			_ = ln.Close()
		}
		if free {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no %d consecutive free loopback ports found", n)
}

// loopbackDeployment registers the workload's roster from the seed and
// lays it out on free 127.0.0.1 ports.
func loopbackDeployment(s spec, seed int64) (*transport.Deployment, *identity.Roster, error) {
	topo, err := identity.NewRegularTopology(topologySpec(s))
	if err != nil {
		return nil, nil, err
	}
	seedBytes := make([]byte, crypto.SeedSize)
	for i := 0; i < 8; i++ {
		seedBytes[i] = byte(seed >> (8 * i))
	}
	im, err := identity.NewManagerFromSeed(seedBytes)
	if err != nil {
		return nil, nil, err
	}
	roster, err := identity.RegisterAll(im, topo, s.m, seedBytes)
	if err != nil {
		return nil, nil, err
	}
	base, err := freePortBase(s.l + s.n + s.m)
	if err != nil {
		return nil, nil, err
	}
	d, err := transport.NewDeployment(im, roster, "127.0.0.1", base)
	return d, roster, err
}

// epSender adapts an endpoint to node.Sender the way the runtime's own
// nodes do: a failed delivery is counted, not fatal.
type epSender struct {
	ep       *transport.Endpoint
	frames   *atomic.Int64
	failures *atomic.Int64
}

func (s epSender) Multicast(_ identity.NodeID, to []identity.NodeID, kind string, payload []byte) error {
	s.frames.Add(int64(len(to)))
	if err := s.ep.Multicast(to, kind, payload); err != nil {
		s.failures.Add(1)
	}
	return nil
}

// client is one provider as the harness runs it: the provider's
// protocol state plus its TCP endpoint. mu orders the generator's
// Submit against the receiver's ObserveBlock.
type client struct {
	mu     sync.Mutex
	id     identity.NodeID
	prov   *node.Provider
	ep     *transport.Endpoint
	sender epSender

	// The chain as this provider saw it arrive.
	lastSerial uint64
	lastHash   crypto.Hash
}

// tcpRun is the state the generator and receiver goroutines share.
type tcpRun struct {
	s       spec
	sched   schedule
	clients []*client
	rec     *recorder
	res     *result

	mu     sync.Mutex // guards acct, lateMS, roundSpan
	acct   *account
	lateMS []float64
	// roundSpan[r] is the root span of protocol round r.
	roundSpan map[int]int

	// The generator goroutine's own, read after it has ended: the host
	// speed it reads between sends, and the blocks of the measured window
	// (perBlock rounds each) with the CPU time and speed of each.
	speed    *speedometer
	perBlock int
	blocks   []block
	blockCPU time.Duration // CPU time, less the speed units', when the open block began

	nodeFailed atomic.Bool
	frames     atomic.Int64
	failures   atomic.Int64
}

// spanOf returns round r's root span, opening it on first use. Callers
// hold t.mu.
func (t *tcpRun) spanOf(r int) (id int, trace string) {
	trace = fmt.Sprintf("%s/%d", t.s.name, r)
	if t.rec == nil {
		return 0, trace
	}
	id, ok := t.roundSpan[r]
	if !ok {
		// The schedule fixes when round r starts and ends.
		start := t.sched.epoch.Add(time.Duration(r-1) * t.sched.round)
		id = t.rec.record("round", trace, 0, start, start.Add(t.sched.round))
		t.roundSpan[r] = id
	}
	return id, trace
}

// generate submits submitRounds rounds of transactions on the schedule,
// round-robin over the providers, and at the start of every round up to
// lastRound re-sends what the client has not seen committed. It stops
// early when a node has died; every transaction still planned then
// counts as failed.
func (t *tcpRun) generate(gen *generator, submitRounds, lastRound int) {
	perRound := int(t.sched.round / t.sched.interval)
	for round := 1; round <= lastRound && !t.nodeFailed.Load(); round++ {
		sleepUntil(t.sched.due((round - 1) * perRound))
		t.blockEdge(round, submitRounds)
		t.resend(round)
		for j := 0; j < perRound && round <= submitRounds; j++ {
			i := (round-1)*perRound + j
			due := t.sched.due(i)
			sleepUntil(due)
			txn, _ := gen.next()
			t.send(t.clients[i%len(t.clients)], txn, due, round, nil)
			// A speed unit delays the next send by a millisecond or two,
			// one send in thirty-two.
			t.speed.tick()
		}
	}
}

// blockOf is the block of the measured window round belongs to, or -1.
func (t *tcpRun) blockOf(round int) int {
	if round <= t.s.warmup {
		return -1
	}
	return (round - t.s.warmup - 1) / t.perBlock
}

// blockEdge runs at the start of every round. Where a block of the
// measured window ends there (or the window itself, after submitRounds)
// it closes the block with the CPU time the process used over it and the
// host speed read during it, and it opens the next.
func (t *tcpRun) blockEdge(round, submitRounds int) {
	first := t.s.warmup + 1
	if round < first || round > submitRounds+1 || ((round-first)%t.perBlock != 0 && round != submitRounds+1) {
		return
	}
	cpu := cpuTime() - t.speed.spent
	speed := t.speed.take()
	if round > first {
		rounds := round - first - len(t.blocks)*t.perBlock
		t.blocks = append(t.blocks, block{
			Rounds: rounds, Speed: speed,
			wall: time.Duration(rounds) * t.sched.round, cpu: cpu - t.blockCPU,
		})
	}
	t.blockCPU = cpu
}

// resend re-sends, as new transactions, the valid ones sent retryAfter
// rounds ago that no block has shown yet: what a client of a chain
// without acknowledgements does. Over TCP a submission is lost when its
// uploads reach the round's leader after it screened.
func (t *tcpRun) resend(round int) {
	t.mu.Lock()
	overdue := t.acct.overdue(round, len(t.clients))
	t.mu.Unlock()
	for k, sts := range overdue {
		for _, st := range sts {
			t.send(t.clients[k], st.tx, st.due, round, st)
		}
	}
}

// send has provider c submit one transaction due at due; retryOf is the
// earlier submission this one repeats, or nil.
func (t *tcpRun) send(c *client, txn repchain.Tx, due time.Time, round int, retryOf *txState) {
	t.mu.Lock()
	parent, trace := t.spanOf(round)
	t.mu.Unlock()
	sp := t.rec.start("client.submit", trace, parent)
	c.mu.Lock()
	sent := time.Now()
	c.prov.SetRound(uint64(round))
	//repchain:dettaint-ok the timestamp is the open-loop due time, client input the provider signs into its own transaction; replicas treat it as opaque payload, and using the due time (not the send time) keeps the signed bytes a function of the seed and the schedule
	signed, err := c.prov.Submit(txn.Kind, txn.Payload, txn.Valid, due.UnixNano(), c.sender)
	c.mu.Unlock()
	t.rec.end(sp)

	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case retryOf != nil:
		if err == nil {
			t.acct.addRetry(signed.ID(), retryOf, round)
		}
	case err != nil:
		t.acct.attempted++
		t.acct.refused++
	default:
		block := t.blockOf(round)
		t.acct.attempted++
		t.acct.add(signed.ID(), c.prov.Index(), txn, false, block, due, round)
		if block >= 0 {
			t.lateMS = append(t.lateMS, ms(lateness(due, sent)))
		}
	}
}

// receive polls every provider's endpoint for block frames until stop
// closes, then drains once more. A block counts as seen by a provider
// the moment its frame is decoded at that provider's endpoint.
func (t *tcpRun) receive(stop <-chan struct{}) {
	for last := false; ; {
		for _, c := range t.clients {
			for _, f := range c.ep.Receive() {
				if f.Kind == network.KindBlock {
					t.onBlock(c, f.Payload)
				}
			}
		}
		if last {
			return
		}
		select {
		case <-stop:
			last = true
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func (t *tcpRun) onBlock(c *client, payload []byte) {
	t0 := time.Now()
	b, err := ledger.DecodeBlockBytes(payload)
	at := time.Now()
	if err != nil {
		t.res.problem("provider %s: undecodable block frame: %v", c.id, err)
		return
	}
	if c.lastSerial != 0 && (b.Serial != c.lastSerial+1 || b.PrevHash != c.lastHash) {
		t.res.problem("provider %s: block %d does not extend block %d", c.id, b.Serial, c.lastSerial)
	}
	c.lastSerial, c.lastHash = b.Serial, b.Hash()

	// Each provider accounts its own transactions, so a transaction is
	// observed once, by its submitter.
	own := make([]repchain.RecordStatus, 0, len(b.Records))
	for _, r := range b.Records {
		if r.Signed.Tx.Provider != c.id {
			continue
		}
		own = append(own, repchain.RecordStatus{
			ID:        r.Signed.ID(),
			Kind:      r.Signed.Tx.Kind,
			Valid:     r.Status == tx.StatusValid,
			Unchecked: r.Unchecked,
		})
	}
	t.mu.Lock()
	t.acct.observe(0, b.Serial, own, at, int(b.Serial))
	parent, trace := t.spanOf(int(b.Serial)) // round r's block carries serial r
	t.mu.Unlock()
	t.rec.record("client.block_decode", trace, parent, t0, at)

	c.mu.Lock()
	_, err = c.prov.ObserveBlock(b, c.sender)
	c.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: provider %s: observe block %d: %v\n", t.s.name, c.id, b.Serial, err)
	}
}

// runTCP runs the loopback-TCP workload: collectors and governors as
// RunNode goroutines on the wall-clock schedule, the harness as the
// providers.
func runTCP(s spec, o options) (*result, error) {
	res := newResult(s, o)
	d, roster, err := loopbackDeployment(s, o.seed)
	if err != nil {
		return nil, fmt.Errorf("deployment: %w", err)
	}

	measured := s.measuredRounds(o)
	total := s.warmup + measured + drainRounds

	t := &tcpRun{
		s: s, res: res,
		acct:      newAccount(),
		roundSpan: make(map[int]int),
		speed:     newSpeedometer(tcpSpeedEvery),
		perBlock:  blockLen(s, measured),
	}
	t.acct.retryAfter = s.retryAfter
	if o.traced {
		t.rec = newRecorder(processStart)
	}
	governorIDs := make([]identity.NodeID, s.m)
	for j, g := range roster.Governors {
		governorIDs[j] = g.ID
	}
	for k, mem := range roster.Providers {
		ep, err := transport.NewEndpoint(d, mem.ID)
		if err != nil {
			return nil, fmt.Errorf("provider %d endpoint: %w", k, err)
		}
		defer ep.Close()
		var linked []identity.NodeID
		for _, c := range roster.Topology.CollectorsOf(k) {
			linked = append(linked, roster.Collectors[c].ID)
		}
		t.clients = append(t.clients, &client{
			id: mem.ID, ep: ep,
			prov:   node.NewProvider(mem, nil, linked, governorIDs),
			sender: epSender{ep: ep, frames: &t.frames, failures: &t.failures},
		})
	}

	reg := metrics.NewRegistry()
	//repchain:dettaint-ok the epoch is this benchmark deployment's shared start time; every node in the process receives the same value
	epoch := time.Now().Add(250 * time.Millisecond)
	t.sched = schedule{epoch: epoch, interval: tcpRound / time.Duration(s.txPerRound), round: tcpRound}
	base := transport.RuntimeConfig{
		Deployment: d,
		Clock:      transport.Clock{Epoch: epoch, Round: tcpRound},
		Rounds:     total,
		Params:     reputation.DefaultParams(),
		Validator:  trivialValidator,
		Seed:       o.seed,
		Metrics:    reg,
	}
	type nodeDone struct {
		id     identity.NodeID
		report transport.Report
		err    error
	}
	var servers []identity.Member
	servers = append(servers, roster.Collectors...)
	servers = append(servers, roster.Governors...)
	done := make(chan nodeDone, len(servers)) // one send per node
	for _, mem := range servers {
		cfg := base
		cfg.ID = mem.ID
		go func() {
			report, err := transport.RunNode(cfg)
			if err != nil {
				t.nodeFailed.Store(true)
			}
			done <- nodeDone{cfg.ID, report, err}
		}()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	submitEnd := epoch.Add(time.Duration(s.warmup+measured) * tcpRound)
	go func() {
		defer wg.Done()
		t.generate(newGenerator(o.seed, s.validShare, 0), s.warmup+measured, total)
	}()
	go func() {
		defer wg.Done()
		t.receive(stop)
	}()

	// Measured window: from the end of warm-up to the end of submission.
	sleepUntil(epoch.Add(time.Duration(s.warmup) * tcpRound))
	res.EndToEnd["setup_s"] = time.Since(processStart).Seconds()
	if o.setupOnly {
		// The nodes are still mid-run; they end with the process.
		return res, nil
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	snap0, cpu0, frames0, t0 := reg.Snapshot(), cpuTime(), t.frames.Load(), time.Now()
	sleepUntil(submitEnd)
	snap1, cpu1, frames1, wall := reg.Snapshot(), cpuTime(), t.frames.Load(), time.Since(t0)
	runtime.ReadMemStats(&mem1)

	// Collect every node before judging: until the receiver has stopped
	// it alone may record problems.
	ended := make([]nodeDone, 0, len(servers))
	for range servers {
		ended = append(ended, <-done)
	}
	close(stop)
	wg.Wait()
	var stats repchain.GovernorStats
	for _, nd := range ended {
		switch {
		case nd.err != nil:
			res.Aborted = true
			res.problem("node %s exited early: %v", nd.id, nd.err)
		case nd.report.Role == "governor":
			if nd.report.Height != uint64(total) {
				res.problem("%s ended at height %d after %d rounds", nd.id, nd.report.Height, total)
			}
			if nd.id == governorIDs[0] {
				stats = nd.report.Stats
			}
		}
	}
	a := t.acct
	// A dead node ends submission early: every transaction still planned
	// is an operation that failed.
	if planned := (s.warmup + measured) * s.txPerRound; planned > a.attempted {
		a.refused += planned - a.attempted
		a.attempted = planned
	}
	for _, c := range t.clients[1:] {
		if first := t.clients[0]; c.lastSerial != first.lastSerial || c.lastHash != first.lastHash {
			res.problem("providers %s and %s ended on different heads", first.id, c.id)
		}
	}
	if a.unknown > 0 {
		res.problem("%d committed records were never submitted", a.unknown)
	}
	failed, _, duplicates := a.failures()
	if duplicates > 0 {
		res.problem("%d transactions committed twice", duplicates)
	}
	res.Attempted, res.Failed = a.attempted, failed
	res.Samples, res.Rounds, res.Rerecorded, res.Resent = len(a.latencyMS), measured, a.rerecorded, a.retries

	// End to end. The wall-clock schedule sets latency and goodput, so
	// they are reported as read: latency as the median over the blocks,
	// goodput over the whole window, from the first measured due time to
	// the last commit. CPU per transaction is processor work: the median
	// over the blocks, each at the reference speed (blocks.go, speed.go).
	deriveBlocks(t.blocks, a.blockLatencyMS, s)
	res.Blocks = t.blocks
	e := res.EndToEnd
	e["commit_latency_p50_ms"] = blockMedian(t.blocks, func(b *block) float64 { return b.P50MS })
	e["commit_latency_p95_ms"] = blockMedian(t.blocks, func(b *block) float64 { return b.P95MS })
	firstDue := epoch.Add(time.Duration(s.warmup) * tcpRound)
	e["throughput_tps"] = ratio(float64(a.committedValid), a.lastCommit.Sub(firstDue).Seconds())
	e["cpu_us_per_tx"] = blockMedian(t.blocks, func(b *block) float64 { return b.CPUUS })
	e["peak_rss_mb"] = peakRSSMB()

	p := res.PerLayer
	txs := float64(a.measuredTx)
	dsnap := deltaSnapshot(snap0, snap1)
	deriveLayers(p, dsnap, repchain.GovernorStats{}, stats, txs)
	// Governor reports cover the whole run, warm-up included: rescale
	// the per-transaction screening ratios to every transaction sent.
	for _, n := range []string{"node.reports_per_tx", "node.checked_per_tx", "node.argues_per_ktx", "node.expired_per_ktx"} {
		p[n] *= ratio(txs, float64(len(a.txs)))
	}
	c := dsnap.Counters
	p["transport.frames_per_tx"] = ratio(float64(c["transport.frames_sent"]+frames1-frames0), txs)
	p["transport.dials_per_round"] = ratio(float64(c["transport.dials"]), float64(measured))
	p["transport.retries_per_ktx"] = ratio(float64(c["transport.retries"]), txs) * 1000
	p["transport.send_failures"] = float64(c["transport.send_failures"] + t.failures.Load())
	p["mempool.refused_share"] = ratio(float64(a.refused), float64(a.attempted))
	p["core.alloc_bytes_per_tx"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), txs)
	p["core.allocs_per_tx"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), txs)
	p["core.gc_pause_ms_per_s"] = ratio(float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, wall.Seconds())
	p["core.cores_busy"] = ratio((cpu1 - cpu0).Seconds(), wall.Seconds())
	p["bench.generator_late_p95_ms"] = percentile(t.lateMS, 95)
	p["bench.host_speed"] = blockMedian(t.blocks, func(b *block) float64 { return b.Speed })
	// Paper §4.1: per-transaction traffic is O(m) — r provider frames
	// and r·m uploads; elections and blocks add a per-round constant.
	if limit := float64(2 * s.r * (1 + s.m)); p["transport.frames_per_tx"] > limit {
		res.problem("transport.frames_per_tx %.1f exceeds the O(m) budget %.0f", p["transport.frames_per_tx"], limit)
	}

	runProbes(s, o, t.rec, res)
	if o.traced {
		path, err := t.rec.writeTrace(o.outDir, s.name, o.seed, counterDeltas(dsnap))
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	return res, nil
}
