// Command benchmark is RepChain's performance contract: six workloads,
// six end-to-end metrics, a per-layer ladder and a traced run. See
// README.md beside this file.
//
//	go run -C benchmark . -seed 1                     # all six workloads at nominal length
//	go run -C benchmark . -seed 1 -workload tcp-loopback -trace
//	go run -C benchmark . -seed 1 -repeat 5           # spread of every metric against its bound
//	bash benchmark/run.sh --workload inproc-steady --seed 3 --seconds 10 --trace 0   # the driver's form
//
// The parent process only orchestrates. Every run of a workload is its
// own child process (this binary with -child), so CPU time, peak RSS,
// GC state and the process-wide signature cache cannot leak from one
// run into the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is the child's start, as near as a Go program can read
// it: package initialisation runs before main.
var processStart = time.Now()

// options are the command line's, and, with the child-only fields set
// by the parent, what one child process is told.
type options struct {
	seed     int64
	workload string
	trace    bool   // also run each workload traced
	outDir   string // trace files and scratch data
	repeat   int
	seconds  float64 // > 0: measure the rounds that fit this long instead of spec.rounds

	// Child-only.
	child  bool
	traced bool    // record spans
	scale  float64 // share of the run length to perform (1, or 0.25 traced)
	// digestAt: capture the chain digest after this many submitting
	// rounds, to compare with a shorter traced run of the same seed.
	digestAt  int
	setupOnly bool // stop after warm-up
}

// normaliseArgs lets -trace stand alone (the issue's form) or take a
// value (the driver's "--trace 0|1"); Go's flag package cannot do both.
func normaliseArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				v = args[i+1]
				i++
			}
			a = "-trace=" + v
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.StringVar(&o.workload, "workload", "all", "one workload by name, or all")
	fs.IntVar(&trace, "trace", 0, "1: also run each workload traced, write <out>/trace-<workload>.json, report per-layer metrics from that run")
	fs.StringVar(&o.outDir, "out", ".bench_build/out", "directory for trace files and scratch data")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many sets and print each metric's median, quartiles and spread against its bound")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure each workload for this long instead of its nominal round count")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.BoolVar(&o.traced, "traced", false, "internal: record spans")
	fs.Float64Var(&o.scale, "scale", 1, "internal: share of the run length")
	fs.IntVar(&o.digestAt, "digest-at", 0, "internal: capture the chain digest after this many rounds")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after warm-up")
	if err := fs.Parse(normaliseArgs(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = trace != 0
	if o.repeat < 1 || o.seconds < 0 || o.scale <= 0 {
		return o, errors.New("-repeat must be at least 1, -seconds and -scale positive")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.child {
		os.Exit(childMain(o))
	}
	os.Exit(parentMain(o))
}

// childMain runs one workload and prints its result as one JSON line.
func childMain(o options) int {
	s, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	res, err := s.run(s, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runChild starts one child with o's child-only fields and parses its
// result. The child is killed at twice the time its run should take: a
// wedged run (scoping saw a 4 s run stretch to 40 s after one governor
// died) must not wedge the benchmark.
func runChild(s spec, o options) (*result, error) {
	timeout := 2 * s.expected(o)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", "-workload", s.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64),
		"-out", o.outDir,
		"-digest-at", strconv.Itoa(o.digestAt),
		"-scale", strconv.FormatFloat(o.scale, 'f', -1, 64),
		"-traced=" + strconv.FormatBool(o.traced),
		"-setup-only=" + strconv.FormatBool(o.setupOnly),
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("killed after %v (twice its expected length)", timeout)
		}
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// abortedAttempts is how many times in all a clock-bound run is made
// while it comes back aborted.
const abortedAttempts = 3

// runAttempts is runChild, made again while a clock-bound run comes back
// aborted or not at all and an attempt is left. Over TCP one host stall
// longer than a phase window (0.285 of the round) makes a governor miss
// the ticket deadline and every governor exit. Such a run is reported in
// full (failure containment) when no attempt is left.
func runAttempts(s spec, o options) (*result, error) {
	for attempt := 1; ; attempt++ {
		res, err := runChild(s, o)
		if !s.clockBound || attempt >= abortedAttempts || (err == nil && !res.Aborted) {
			if res != nil {
				res.Reruns = attempt - 1
			}
			return res, err
		}
		why := err
		if why == nil {
			why = errors.New(strings.Join(res.Problems, "; "))
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: attempt %d aborted, running it again: %v\n", s.name, attempt, why)
	}
}

// failedRun is what a run that produced no result counts as: one
// attempted operation, failed.
func failedRun(s spec, o options, err error) *result {
	res := newResult(s, o)
	res.Attempted, res.Failed = 1, 1
	res.problem("%v", err)
	return res
}

// setupRuns is how many times a workload is set up for one setup_s
// value (the median): the measured child plus setup-only children.
const setupRuns = 3

// runWorkload runs every child one workload needs and combines them
// into the untraced run's result: end-to-end metrics from that run with
// setup_s the median of all set-ups, per-layer metrics from the traced
// run when there is one. wantEndToEnd is false only for the driver's
// --trace 1 form, which reports per-layer metrics alone and so skips the
// extra set-ups.
func runWorkload(s spec, o options, wantEndToEnd bool) *result {
	var traced *result
	if o.trace {
		quarter := o
		quarter.traced, quarter.scale = true, 0.25
		t, err := runAttempts(s, quarter)
		if err != nil {
			return failedRun(s, o, fmt.Errorf("traced run: %w", err))
		}
		traced = t
	}
	full := o
	if traced != nil {
		full.digestAt = traced.DigestRounds
	}
	u, err := runAttempts(s, full)
	if err != nil {
		return failedRun(s, o, fmt.Errorf("untraced run: %w", err))
	}
	if wantEndToEnd && !s.clockBound {
		setups := []float64{u.EndToEnd["setup_s"]}
		for i := 1; i < setupRuns; i++ {
			setup := o
			setup.setupOnly = true
			r, err := runChild(s, setup)
			if err != nil {
				u.problem("set-up run: %v", err)
				continue
			}
			setups = append(setups, r.EndToEnd["setup_s"])
		}
		u.EndToEnd["setup_s"] = median(setups)
	}
	if traced != nil {
		overhead := ratio(u.EndToEnd["throughput_tps"], traced.EndToEnd["throughput_tps"])
		if s.clockBound {
			// The schedule sets goodput; what tracing costs shows in CPU time.
			overhead = ratio(traced.EndToEnd["cpu_us_per_tx"], u.EndToEnd["cpu_us_per_tx"])
		}
		u.PerLayer, u.TraceFile = traced.PerLayer, traced.TraceFile
		u.PerLayer["bench.trace_overhead"] = overhead
		for _, p := range traced.Problems {
			u.problem("traced run: %s", p)
		}
		// Same seed, same chain, traced or not. (The TCP run is scheduled
		// by the wall clock and reports no digest.)
		if traced.Digest != "" && (u.DigestRounds != traced.DigestRounds || u.Digest != traced.Digest) {
			u.problem("traced and untraced runs diverge: digest %.12s after %d rounds traced, %.12s after %d untraced",
				traced.Digest, traced.DigestRounds, u.Digest, u.DigestRounds)
		}
	}
	return u
}

func parentMain(o options) int {
	selected := workloads
	if o.workload != "all" {
		s, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have:", o.workload)
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, " %s", w.name)
			}
			fmt.Fprintln(os.Stderr)
			return 2
		}
		selected = []spec{s}
	}
	// The driver's form is one workload for a stated time; with --trace 1
	// it wants the per-layer metrics only.
	contract := len(selected) == 1 && o.repeat == 1
	wantEndToEnd := !(contract && o.trace && o.seconds > 0)

	allCorrect := true
	sets := make([][]*result, o.repeat)
	for set := range sets {
		for i := range selected {
			// Later sets run the workloads in rotated order, so agreement
			// between sets does not depend on what ran just before.
			s := selected[(i+set)%len(selected)]
			res := runWorkload(s, o, wantEndToEnd)
			sets[set] = append(sets[set], res)
			allCorrect = allCorrect && res.Correct
			printResult(s, res, o, wantEndToEnd)
		}
	}
	if o.repeat > 1 {
		printSpread(selected, sets)
	}
	if contract {
		printContractLine(sets[0][0], o.trace)
	}
	if !allCorrect {
		return 1
	}
	return 0
}

func printResult(s spec, res *result, o options, wantEndToEnd bool) {
	fmt.Printf("== %s  seed=%d  %s\n", s.name, o.seed, s.why)
	fmt.Printf("   correct=%v attempted=%d failed=%d latency_samples=%d measured_rounds=%d round_errors=%d invalid_rerecorded=%d resent=%d reruns=%d\n",
		res.Correct, res.Attempted, res.Failed, res.Samples, res.Rounds, res.RoundErrors, res.Rerecorded, res.Resent, res.Reruns)
	for _, p := range res.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	if wantEndToEnd {
		fmt.Println("   end-to-end (untraced run)")
		for _, m := range endToEnd {
			fmt.Printf("     %-32s %14.4f %s\n", m.name, res.EndToEnd[m.name], m.unit)
		}
	}
	from := "untraced run"
	if o.trace {
		from = "traced run"
	}
	fmt.Printf("   per-layer (%s; probes ran after it)\n", from)
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.name]; ok {
			fmt.Printf("     %-32s %14.4f %s\n", m.name, v, m.unit)
		} else {
			fmt.Printf("     %-32s %14s\n", m.name, "absent")
		}
	}
	if res.TraceFile != "" {
		fmt.Printf("   trace file: %s\n", res.TraceFile)
	}
}

// printSpread is the evidence that the benchmark is steady: for every
// end-to-end metric × workload, the median and quartiles over the sets,
// the interquartile spread and the largest difference between any two
// sets, each as a share of the median, against the metric's bound.
func printSpread(selected []spec, sets [][]*result) {
	fmt.Printf("\n== spread over %d sets\n", len(sets))
	fmt.Printf("%-22s %-24s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "max/med", "bound")
	for _, s := range selected {
		for _, m := range endToEnd {
			var vals []float64
			for _, set := range sets {
				for _, res := range set {
					if res.Workload == s.name {
						vals = append(vals, res.EndToEnd[m.name])
					}
				}
			}
			sort.Float64s(vals)
			q1, q2, q3 := quartiles(vals)
			iqr, span := ratio(q3-q1, q2), ratio(vals[len(vals)-1]-vals[0], q2)
			verdict := "ok"
			if span > m.bound {
				verdict = "EXCEEDS"
			}
			fmt.Printf("%-22s %-24s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f %s\n",
				s.name, m.name, q2, q1, q3, iqr, span, m.bound, verdict)
		}
	}
}

// printContractLine prints the driver's result object as the last line
// of standard output: every end-to-end metric, or with tracing every
// per-layer metric (0 for one that is absent on this workload).
func printContractLine(res *result, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.EndToEnd
	if trace {
		defs, vals = perLayer, res.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.name] = value{vals[m.name], m.unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	fmt.Println(string(line))
}
