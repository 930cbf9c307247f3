package main

import (
	"fmt"
	"math"
	"time"
)

// Drain lengths are fixed numbers of rounds, like the warm-up.
const (
	drainRounds = 3  // submission stops this many rounds before the run ends
	drainMaxXsh = 10 // cluster: drain until no receipt is pending, at most this many rounds
)

// spec describes one workload. Round counts are the nominal length; a
// run given -seconds measures for that long instead.
type spec struct {
	name string
	why  string
	// Topology: l providers, n collectors, r collectors per provider, m
	// governors, k committees.
	l, n, r, m, k int
	txPerRound    int
	validShare    float64
	crossShare    float64
	// durable: the chain lives in a directory, and the run ends by
	// closing and reopening it.
	durable bool
	// honestFrom is the first honest collector: reputation.honest_share
	// sums the revenue shares from there on.
	honestFrom int
	rounds     int
	// warmup is the fixed number of warm-up rounds that end set-up: a
	// number of rounds, not a time, so setup_s scales with the code and
	// not with the scheduler; sized so that set-up takes about a second.
	warmup int
	// retryAfter > 0: the client re-sends a valid transaction it has not
	// seen committed this many rounds after sending it.
	retryAfter int
	// clockBound: a wall-clock schedule, not the processor, sets latency,
	// goodput and set-up time (the TCP run). They are reported as read, and
	// one set-up is enough: the schedule fixes it to the millisecond. Such
	// a run can abort (result.Aborted) and is then made again; the
	// in-process runs are a function of the seed and never abort.
	clockBound bool
	// speedShare is how much of a host slowdown, as the speed unit reads
	// it, the workload's processor-bound times share (speed.go). Measured
	// over the scoping runs as the log–log slope of a block's latency and
	// CPU time against the host speed read with it: 0.45–0.75 for the
	// single-chain workloads, which leave a core half idle, 0.75–1.0 for
	// the two that keep every core busy or live on hand-offs and syscalls.
	speedShare float64
	// roundMS is what one measured round took on the scoping box. It
	// turns -seconds into a round count, so that a timed run does the
	// same work for the same seed on every machine and every run.
	roundMS float64
	run     func(spec, options) (*result, error)
}

// measuredRounds is the length of the measured window: the nominal
// round count, or with -seconds the rounds that fit that time on the
// scoping box, times the share of the run this child performs.
func (s spec) measuredRounds(o options) int {
	rounds := float64(s.rounds)
	if o.seconds > 0 {
		rounds = o.seconds * 1000 / s.roundMS
	}
	return int(math.Ceil(rounds * o.scale))
}

// expected is how long a child's run should take: the parent kills it
// at twice that.
func (s spec) expected(o options) time.Duration {
	const setupAllowance = 10 * time.Second
	if o.setupOnly {
		return setupAllowance
	}
	return setupAllowance + time.Duration(float64(s.measuredRounds(o))*s.roundMS*float64(time.Millisecond))
}

// workloads lists the six workloads in run order.
var workloads = []spec{
	{
		name: "inproc-steady",
		why:  "per-tx hot path: crypto, tx, codec and batch-verify do the work; ledger, transport and shard do none",
		l:    8, n: 4, r: 2, m: 3, k: 1,
		txPerRound: 256, validShare: 0.75, rounds: 220, warmup: 20,
		speedShare: 0.65, roundMS: 58, run: runInproc,
	},
	{
		name: "inproc-durable-small",
		why:  "per-round fixed costs dominate: election, bus ticks, block encode, append, seal-fsync, snapshot, prune, then reopen",
		l:    8, n: 4, r: 2, m: 3, k: 1,
		txPerRound: 8, validShare: 0.75, durable: true, rounds: 4000, warmup: 400,
		speedShare: 0.65, roundMS: 2.5, run: runInproc,
	},
	{
		name: "inproc-adversarial",
		why:  "lying collectors, r=4 conflicting reports, argues and a costly validate(tx): the paper's f-vs-speed claim",
		l:    8, n: 8, r: 4, m: 3, k: 1,
		txPerRound: 128, validShare: 0.50, honestFrom: 5, rounds: 200, warmup: 20,
		speedShare: 0.65, roundMS: 57, run: runInproc,
	},
	{
		name: "cluster-k4",
		why:  "the only workload where the shard layer and committee-level parallelism can show; 10% cross-shard receipts",
		l:    8, n: 16, r: 2, m: 3, k: 4,
		txPerRound: 256, validShare: 0.75, crossShare: 0.10, rounds: 300, warmup: 20,
		speedShare: 0.9, roundMS: 42, run: runInproc,
	},
	{
		name: "inproc-chaos",
		why:  "degrade, abort and resync paths under load: drops plus a crashed governor and collector, then heal",
		l:    8, n: 4, r: 2, m: 3, k: 1,
		txPerRound: 128, validShare: 1.0, rounds: 300, warmup: 20, retryAfter: 3,
		speedShare: 0.65, roundMS: 30, run: runInproc,
	},
	{
		name: "tcp-loopback",
		why:  "the deployed path: frame sign, encode, TCP, auth and the wall-clock phase schedule, open loop at 320 tx/s",
		l:    4, n: 4, r: 2, m: 3, k: 1,
		txPerRound: 320, validShare: 0.75, rounds: 20, warmup: 2, retryAfter: 3,
		clockBound: true, speedShare: 0.9, roundMS: 1000, run: runTCP,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// result is what one child reports on its last line of standard output.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Aborted: a node of the clock-scheduled deployment died (the host
	// stalled it past a phase deadline), so the run measured a dying
	// alliance, not the workload. Its operations still count as failed;
	// the parent makes the run again. Reruns counts those repeats.
	Aborted bool `json:"aborted,omitempty"`
	Reruns  int  `json:"reruns,omitempty"`
	// Samples is the number of commit-latency samples (valid measured
	// transactions); Rounds the number of measured rounds.
	Samples     int `json:"samples"`
	Rounds      int `json:"rounds"`
	RoundErrors int `json:"round_errors"`
	// Rerecorded counts invalid transactions recorded (invalid,
	// unchecked) in more than one block: tolerated, and worth watching.
	Rerecorded int `json:"rerecorded"`
	// Resent counts client re-sends of submissions the chain lost.
	Resent int `json:"resent"`
	// Digest is the chained digest of every committed record after
	// DigestRounds submitting rounds.
	Digest       string `json:"digest,omitempty"`
	DigestRounds int    `json:"digest_rounds,omitempty"`
	// Blocks are the blocks of the measured window whose medians the
	// end-to-end time metrics are.
	Blocks    []block            `json:"blocks,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func newResult(s spec, o options) *result {
	return &result{
		Workload: s.name, Seed: o.seed, Correct: true,
		EndToEnd: make(map[string]float64), PerLayer: make(map[string]float64),
	}
}

// problem records a failed correctness check.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}
