// Command repchain-benchcheck is the bench-regression gate (DESIGN.md
// §4f). It parses the `go test -json` stream that `make bench-round`
// writes to BENCH_round.json, extracts every benchmark result line
// (name, ns/op, allocs/op, and custom metrics such as tx/s and
// sig-checks/tx), and compares it against the checked-in
// BENCH_baseline.json:
//
//   - allocs/op may not grow beyond baseline·(1+allocs-tol)+allocs-slack
//     — a hard, machine-independent gate (allocation counts do not
//     depend on CPU speed); benchmarks the baseline lists under
//     exact_allocs may not grow at all;
//   - tx/s may not regress below baseline·(1−txs-tol) — hardware-
//     dependent, so the tolerance is a flag and the baseline documents
//     the machine it was captured on;
//   - ns/op is reported for context but never gates (it is just the
//     inverse of tx/s where that metric exists, and pure noise across
//     runner generations where it does not);
//   - a benchmark present in the baseline but missing from the current
//     run fails — silently dropping a benchmark would erode the gate;
//   - the baseline may pin ns/op *ratios* between two benchmarks of the
//     same run ("slow" must be at least Min× "fast"). Ratios compare
//     two numbers captured on the same machine in the same run, so they
//     are hardware-independent and gate hard — the reopen-latency gate
//     (snapshot recovery must beat full replay by ≥10×) lives here.
//
// Usage:
//
//	repchain-benchcheck -baseline BENCH_baseline.json -current BENCH_round.json
//	repchain-benchcheck -current BENCH_round.json -baseline BENCH_baseline.json -update
//
// The -update mode rewrites the baseline from the current run; commit
// the result when a PR intentionally shifts performance (see README
// "Benchmark gate").
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the `go test -json` event stream we need.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// baselineFile is the checked-in BENCH_baseline.json shape.
type baselineFile struct {
	// Machine documents where the baseline numbers were captured; it is
	// informational and never compared.
	Machine string `json:"machine,omitempty"`
	// Benchtime is the -benchtime the baseline was captured at. The
	// check refuses to compare runs captured at a different benchtime:
	// sync.Pool and cache warm-up make 1-iteration numbers incomparable
	// to steady-state ones.
	Benchtime string `json:"benchtime,omitempty"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to
	// its metric values, e.g. {"ns/op": 1.2e6, "allocs/op": 340}.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	// Ratios pins minimum ns/op ratios between benchmark pairs of the
	// current run. They are hand-written, survive -update, and fail the
	// check when either side is missing.
	Ratios []ratioGate `json:"ratios,omitempty"`
	// ExactAllocs names benchmarks whose allocs/op gate has no
	// tolerance and no slack: their counts are small and repeat
	// exactly (one frame over loopback), so one more allocation is a
	// regression. Hand-written; survives -update like Ratios.
	ExactAllocs []string `json:"exact_allocs,omitempty"`
}

// ratioGate bounds the cur[Slow].ns/op / cur[Fast].ns/op ratio: Min
// requires the Fast benchmark to beat the Slow one by at least Min×
// (speedup gates, e.g. snapshot recovery vs replay), Max caps how much
// slower Slow may be (overhead gates, e.g. tracing-on vs tracing-off).
// Either bound may be zero to disable it.
type ratioGate struct {
	// Slow and Fast are benchmark names as they appear in the run
	// (GOMAXPROCS suffix stripped).
	Slow string `json:"slow"`
	Fast string `json:"fast"`
	// Min is the minimum allowed Slow/Fast ns/op ratio (0 = no floor).
	Min float64 `json:"min,omitempty"`
	// Max is the maximum allowed Slow/Fast ns/op ratio (0 = no cap).
	Max float64 `json:"max,omitempty"`
	// MinProcs makes the bounds informational when the run's GOMAXPROCS
	// (the -N benchmark-name suffix) is below it. Parallel-scaling gates
	// (committees=4 must beat committees=1) are meaningless on a
	// single-core runner, but must still gate hard where the cores
	// exist. Zero enforces unconditionally. Missing-benchmark erosion
	// always fails regardless — the benchmarks themselves run anywhere.
	MinProcs int `json:"minprocs,omitempty"`
	// Note documents what the ratio protects; informational.
	Note string `json:"note,omitempty"`
}

// parseBenchJSON reads a `go test -json` stream and returns the metric
// map per benchmark. Benchmark names and their result fields arrive as
// separate Output events (the test binary prints the name, runs, then
// appends the numbers), so output is re-assembled per package before
// line parsing. The second return is the largest GOMAXPROCS suffix
// seen on any result line (1 when names carry none) — ratio gates with
// MinProcs consult it to decide whether they enforce or inform.
func parseBenchJSON(path string) (map[string]map[string]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	perPkg := make(map[string]*strings.Builder)
	var pkgs []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, 0, fmt.Errorf("%s: not a go test -json stream: %w", path, err)
		}
		if ev.Action != "output" {
			continue
		}
		b, ok := perPkg[ev.Package]
		if !ok {
			b = &strings.Builder{}
			perPkg[ev.Package] = b
			pkgs = append(pkgs, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}

	// A benchmark appearing several times in the stream (-count > 1, or
	// a second targeted invocation appended by make bench-round) is
	// averaged per metric: ratio gates on noisy wall-clock numbers are
	// far more stable on a mean of temporally adjacent samples than on
	// any single run.
	sums := make(map[string]map[string]float64)
	counts := make(map[string]map[string]float64)
	procs := 1
	for _, pkg := range pkgs {
		for _, line := range strings.Split(perPkg[pkg].String(), "\n") {
			name, p, metrics, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			if p > procs {
				procs = p
			}
			if sums[name] == nil {
				sums[name] = make(map[string]float64)
				counts[name] = make(map[string]float64)
			}
			for unit, v := range metrics {
				sums[name][unit] += v
				counts[name][unit]++
			}
		}
	}
	if len(sums) == 0 {
		return nil, 0, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	out := make(map[string]map[string]float64, len(sums))
	for name, m := range sums {
		avg := make(map[string]float64, len(m))
		for unit, sum := range m {
			avg[unit] = sum / counts[name][unit]
		}
		out[name] = avg
	}
	return out, procs, nil
}

// parseBenchLine parses one textual benchmark result line:
//
//	BenchmarkFoo/sub=1-4   100   123 ns/op   7 allocs/op   9.5 tx/s
//
// i.e. name, iteration count, then (value, unit) pairs. The trailing
// -N GOMAXPROCS suffix is stripped from the name so baselines survive
// runner-core-count changes; its value is returned separately (1 when
// absent) for the MinProcs ratio-gate policy.
func parseBenchLine(line string) (string, int, map[string]float64, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, nil, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", 0, nil, false // "Benchmark... results" summary or log noise
	}
	name := stripProcsSuffix(fields[0])
	procs := 1
	if name != fields[0] {
		if p, err := strconv.Atoi(fields[0][len(name)+1:]); err == nil && p > 0 {
			procs = p
		}
	}
	metrics := make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, nil, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", 0, nil, false
	}
	return name, procs, metrics, true
}

// stripProcsSuffix removes a trailing "-N" (GOMAXPROCS) from a
// benchmark name, but only from the last path segment so sub-bench
// names like "m=512" survive intact.
func stripProcsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.ParseInt(name[i+1:], 10, 64); err != nil {
		return name
	}
	return name[:i]
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline file")
		currentPath  = flag.String("current", "BENCH_round.json", "go test -json stream from make bench-round")
		update       = flag.Bool("update", false, "rewrite the baseline from the current run instead of checking")
		benchtime    = flag.String("benchtime", "1s", "benchtime the run was captured at (recorded in / matched against the baseline)")
		machine      = flag.String("machine", "", "with -update: free-form note on the capture machine")
		txsTol       = flag.Float64("txs-tol", 0.10, "allowed fractional tx/s regression (0.10 = -10%)")
		allocsTol    = flag.Float64("allocs-tol", 0.10, "allowed fractional allocs/op growth")
		allocsSlack  = flag.Float64("allocs-slack", 8, "absolute allocs/op slack on top of allocs-tol (absorbs ±1-alloc jitter on tiny counts)")
	)
	flag.Parse()

	cur, procs, err := parseBenchJSON(*currentPath)
	if err != nil {
		fatal(err)
	}
	if *update {
		// Ratio gates and the exact-allocs list are hand-written policy,
		// not measurements: carry them over from the existing baseline so
		// -update cannot erode them.
		var old baselineFile
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			if err := json.Unmarshal(raw, &old); err != nil {
				old = baselineFile{}
			}
		}
		if err := writeBaseline(*baselinePath, cur, old.Ratios, old.ExactAllocs, *benchtime, *machine); err != nil {
			fatal(err)
		}
		fmt.Printf("repchain-benchcheck: wrote %s (%d benchmarks, %d ratio gates, benchtime %s)\n",
			*baselinePath, len(cur), len(old.Ratios), *benchtime)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *baselinePath, err))
	}
	if base.Benchtime != "" && base.Benchtime != *benchtime {
		fatal(fmt.Errorf("baseline captured at -benchtime %s but current run claims %s; rerun make bench-round with BENCHTIME=%s or refresh the baseline",
			base.Benchtime, *benchtime, base.Benchtime))
	}

	failures := check(base.Benchmarks, cur, base.ExactAllocs, *txsTol, *allocsTol, *allocsSlack)
	failures = append(failures, checkRatios(base.Ratios, cur, procs)...)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		fmt.Fprintf(os.Stderr, "repchain-benchcheck: %d regression(s) against %s\n", len(failures), *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("repchain-benchcheck: %d benchmarks within tolerance of %s (%d ratio gates)\n",
		len(base.Benchmarks), *baselinePath, len(base.Ratios))
}

// checkRatios enforces the baseline's ns/op ratio gates against the
// current run. Both sides must be present — a ratio whose benchmark
// vanished is gate erosion, not a pass, and that holds even below
// MinProcs (the benchmarks run on any core count; only the ratio's
// value needs the parallelism). A bound violated while procs <
// MinProcs is reported as info, not a failure.
func checkRatios(ratios []ratioGate, cur map[string]map[string]float64, procs int) []string {
	var failures []string
	for _, r := range ratios {
		slow, okS := cur[r.Slow]["ns/op"]
		fast, okF := cur[r.Fast]["ns/op"]
		enforce := procs >= r.MinProcs
		switch {
		case !okS:
			failures = append(failures, fmt.Sprintf(
				"ratio %s / %s: %s missing ns/op in current run (gate erosion)", r.Slow, r.Fast, r.Slow))
		case !okF:
			failures = append(failures, fmt.Sprintf(
				"ratio %s / %s: %s missing ns/op in current run (gate erosion)", r.Slow, r.Fast, r.Fast))
		case fast <= 0:
			failures = append(failures, fmt.Sprintf(
				"ratio %s / %s: non-positive fast ns/op %g", r.Slow, r.Fast, fast))
		case r.Min > 0 && slow/fast < r.Min:
			if !enforce {
				fmt.Printf("info: ratio %s / %s = %.2fx below %.1fx, not enforced at GOMAXPROCS %d < %d (%s)\n",
					r.Slow, r.Fast, slow/fast, r.Min, procs, r.MinProcs, r.Note)
				break
			}
			failures = append(failures, fmt.Sprintf(
				"ratio %s / %s = %.1fx below required %.1fx (%s)",
				r.Slow, r.Fast, slow/fast, r.Min, r.Note))
		case r.Max > 0 && slow/fast > r.Max:
			if !enforce {
				fmt.Printf("info: ratio %s / %s = %.2fx above %.2fx, not enforced at GOMAXPROCS %d < %d (%s)\n",
					r.Slow, r.Fast, slow/fast, r.Max, procs, r.MinProcs, r.Note)
				break
			}
			failures = append(failures, fmt.Sprintf(
				"ratio %s / %s = %.2fx above allowed %.2fx (%s)",
				r.Slow, r.Fast, slow/fast, r.Max, r.Note))
		default:
			fmt.Printf("info: ratio %s / %s = %.2fx (min %g, max %g)\n",
				r.Slow, r.Fast, slow/fast, r.Min, r.Max)
		}
	}
	return failures
}

// check applies the gates and returns human-readable failures.
// Informational drift (ns/op, new benchmarks) goes straight to stdout.
func check(base, cur map[string]map[string]float64, exactAllocs []string, txsTol, allocsTol, allocsSlack float64) []string {
	var failures []string
	exact := make(map[string]bool, len(exactAllocs))
	for _, name := range exactAllocs {
		exact[name] = true
		if _, ok := base[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: listed under exact_allocs but absent from the baseline (gate erosion)", name))
		}
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s: present in baseline but missing from current run (gate erosion)", name))
			continue
		}
		if bAllocs, ok := b["allocs/op"]; ok {
			if cAllocs, ok := c["allocs/op"]; ok {
				tol, slack := allocsTol, allocsSlack
				if exact[name] {
					tol, slack = 0, 0
				}
				limit := bAllocs*(1+tol) + slack
				if cAllocs > limit {
					failures = append(failures, fmt.Sprintf(
						"%s: allocs/op %.0f exceeds limit %.1f (baseline %.0f, tol %.0f%% + %.0f slack)",
						name, cAllocs, limit, bAllocs, tol*100, slack))
				}
			}
		}
		if bTxs, ok := b["tx/s"]; ok && bTxs > 0 {
			if cTxs, ok := c["tx/s"]; ok {
				floor := bTxs * (1 - txsTol)
				if cTxs < floor {
					failures = append(failures, fmt.Sprintf(
						"%s: tx/s %.0f below floor %.0f (baseline %.0f, tol %.0f%%)",
						name, cTxs, floor, bTxs, txsTol*100))
				}
			}
		}
		if bNs, ok := b["ns/op"]; ok && bNs > 0 {
			if cNs, ok := c["ns/op"]; ok {
				fmt.Printf("info: %s ns/op %.0f vs baseline %.0f (%+.1f%%)\n",
					name, cNs, bNs, (cNs/bNs-1)*100)
			}
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("info: %s not in baseline (run make bench-baseline to adopt it)\n", name)
		}
	}
	return failures
}

func writeBaseline(path string, cur map[string]map[string]float64, ratios []ratioGate, exactAllocs []string, benchtime, machine string) error {
	out := baselineFile{Machine: machine, Benchtime: benchtime, Benchmarks: cur, Ratios: ratios, ExactAllocs: exactAllocs}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repchain-benchcheck:", err)
	os.Exit(1)
}
