// Command repchain-lint is the multichecker for RepChain's written
// determinism and concurrency invariants. It runs six custom
// analyzers over the main module:
//
//	lockguard    `// guarded by mu` fields only touched under mu
//	metricname   metric names are constants from the DESIGN.md §4c catalogue
//	errwrapcheck sentinel errors compared with errors.Is, wrapped with %w
//	dettaint     no nondeterminism source (wall clock, unseeded
//	             math/rand, map or select order, host probes) flows
//	             into a consensus sink, through any call chain in any
//	             package (interprocedural, DESIGN.md §4j)
//	goroleak     no goroutine without a join or cancellation path
//	atomicmix    no field accessed both via sync/atomic and plainly
//
// Usage (from the tools module):
//
//	go run ./cmd/repchain-lint -C .. ./...
//
// Exit status is 1 when any unsuppressed finding remains (or the
// -deadline budget is exceeded); `make lint` and the CI lint job gate
// merges on that. -json emits every finding — suppressed ones
// included, with their annotation state — as a machine-readable triage
// report. -timing prints per-analyzer wall time. Suppressions are
// //repchain:<directive> <reason> comments — see DESIGN.md §4e.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repchain/internal/designdoc"
	"repchain/tools/analysis"
	"repchain/tools/lint/atomicmix"
	"repchain/tools/lint/dettaint"
	"repchain/tools/lint/errwrapcheck"
	"repchain/tools/lint/goroleak"
	"repchain/tools/lint/lockguard"
	"repchain/tools/lint/metricname"
)

func main() {
	chdir := flag.String("C", ".", "root of the repchain module (where DESIGN.md lives)")
	jsonOut := flag.Bool("json", false, "emit findings (suppressed included) as JSON on stdout")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	deadline := flag.Duration("deadline", 120*time.Second, "fail if the whole lint run exceeds this wall time")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: repchain-lint [-C repo-root] [-json] [-timing] [-deadline d] [package patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if err := run(*chdir, patterns, *jsonOut, *timing, *deadline); err != nil {
		fmt.Fprintf(os.Stderr, "repchain-lint: %v\n", err)
		os.Exit(2)
	}
}

// record is one finding in the -json triage report.
type record struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run(root string, patterns []string, jsonOut, timing bool, deadline time.Duration) error {
	start := time.Now()
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	catalogue, err := designdoc.LoadMetricCatalogue(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return err
	}
	analyzers := []*analysis.Analyzer{
		lockguard.Analyzer,
		metricname.New(catalogue, "DESIGN.md §4c"),
		errwrapcheck.Analyzer,
		dettaint.Analyzer,
		goroleak.Analyzer,
		atomicmix.Analyzer,
	}
	loader := analysis.NewLoader(analysis.LoadConfig{Dir: root})
	pkgs, err := loader.Targets(patterns...)
	if err != nil {
		return err
	}
	linted := pkgs[:0]
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "repchain/tools") { // the lint suite does not lint itself
			linted = append(linted, pkg)
		}
	}
	elapsed := make([]time.Duration, len(analyzers))
	for i, a := range analyzers {
		if a.Prepare == nil {
			continue
		}
		t0 := time.Now()
		if err := a.Prepare(loader, loader.Loaded()); err != nil {
			return fmt.Errorf("prepare %s: %v", a.Name, err)
		}
		elapsed[i] += time.Since(t0)
	}
	var records []record
	for _, pkg := range linted {
		for i, a := range analyzers {
			t0 := time.Now()
			diags, err := analysis.RunAnalyzer(a, loader, pkg)
			elapsed[i] += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				posn := loader.Fset.Position(d.Pos)
				file := posn.Filename
				if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
				records = append(records, record{
					File: file, Line: posn.Line, Col: posn.Column,
					Analyzer: a.Name, Message: d.Message, Suppressed: d.Suppressed,
				})
			}
		}
	}
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	records = dedupe(records)

	if timing {
		for i, a := range analyzers {
			fmt.Fprintf(os.Stderr, "repchain-lint: timing %-12s %8.1fms\n", a.Name, float64(elapsed[i].Microseconds())/1000)
		}
		fmt.Fprintf(os.Stderr, "repchain-lint: timing %-12s %8.1fms\n", "total", float64(time.Since(start).Microseconds())/1000)
	}

	failing := 0
	for _, r := range records {
		if !r.Suppressed {
			failing++
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if records == nil {
			records = []record{}
		}
		if err := enc.Encode(records); err != nil {
			return err
		}
	} else {
		for _, r := range records {
			if r.Suppressed {
				continue
			}
			fmt.Printf("%s:%d:%d: [%s] %s\n", r.File, r.Line, r.Col, r.Analyzer, r.Message)
		}
	}
	if total := time.Since(start); total > deadline {
		fmt.Fprintf(os.Stderr, "repchain-lint: run took %s, over the %s deadline; profile with -timing\n",
			total.Round(time.Millisecond), deadline)
		os.Exit(1)
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "repchain-lint: %d finding(s)\n", failing)
		os.Exit(1)
	}
	return nil
}

// dedupe removes adjacent duplicates from a sorted slice.
func dedupe(in []record) []record {
	out := in[:0]
	for i, r := range in {
		if i == 0 || r != in[i-1] {
			out = append(out, r)
		}
	}
	return out
}
