// Drift test for the observability docs: every metric registered
// anywhere in the tree must be named by a string literal listed in
// DESIGN.md §4c's metric catalogue, and every name the catalogue lists
// must be registered somewhere, so neither can silently fall behind
// the other.
package repchain_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registrars are the metrics.Registry methods whose first argument is
// a metric name.
var registrars = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
}

// catalogueNameRe matches one backticked metric name (`chain.height`).
var catalogueNameRe = regexp.MustCompile("`([a-z0-9_.]+)`")

// metricCatalogue returns every backticked name in the first column of
// the table under DESIGN.md's "### Metric catalogue" (a cell may list
// several, separated by /). It fails when it finds none, so a doc
// reshuffle breaks the test instead of emptying it.
func metricCatalogue(t *testing.T) map[string]bool {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names, err := parseMetricCatalogue(design)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func parseMetricCatalogue(design []byte) (map[string]bool, error) {
	names := map[string]bool{}
	inCatalogue := false
	for _, line := range strings.Split(string(design), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "### Metric catalogue":
			inCatalogue = true
			continue
		case strings.HasPrefix(line, "#"):
			inCatalogue = false
		}
		if !inCatalogue || !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range catalogueNameRe.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		return nil, errors.New(`no metric names under DESIGN.md's "### Metric catalogue" table; was it moved or renamed?`)
	}
	return names, nil
}

func TestMetricCatalogueParsesTable(t *testing.T) {
	doc := []byte("# Doc\n\n### Metric catalogue\n\nintro prose\n\n" +
		"| name | kind | meaning |\n" +
		"|---|---|---|\n" +
		"| `engine.rounds_total` | counter | rounds |\n" +
		"| `sigcache.hits` / `sigcache.misses` | gauge | traffic (`per` round) |\n" +
		"| `round.stage_seconds` | histogram vec (`stage`) | timing |\n\n" +
		"### Next section\n\n| `not.in_catalogue` | counter | outside the table |\n")
	names, err := parseMetricCatalogue(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine.rounds_total", "sigcache.hits", "sigcache.misses", "round.stage_seconds"} {
		if !names[want] {
			t.Errorf("catalogue missing %q", want)
		}
	}
	if names["stage"] {
		t.Error("label name from the kind column leaked into the catalogue")
	}
	if names["per"] {
		t.Error("backtick from a later column leaked into the catalogue")
	}
	if names["not.in_catalogue"] {
		t.Error("row outside the catalogue section was parsed")
	}
}

func TestMetricCatalogueFailsWithoutHeading(t *testing.T) {
	if _, err := parseMetricCatalogue([]byte("# Doc\n\n| `x.y` | counter | no heading |\n")); err == nil {
		t.Fatal("expected an error when the catalogue heading is absent")
	}
}

// TestRealCatalogue pins the parser to the repository's actual
// DESIGN.md: a reshuffle that breaks parsing must fail here, not
// silently weaken TestMetricNamesDocumented.
func TestRealCatalogue(t *testing.T) {
	names := metricCatalogue(t)
	for _, want := range []string{"engine.rounds_total", "mempool.admitted_total", "transport.frames_sent", "chaos.rounds_aborted"} {
		if !names[want] {
			t.Errorf("DESIGN.md catalogue missing %q — §4c table moved?", want)
		}
	}
}

func TestMetricNamesDocumented(t *testing.T) {
	catalogue := metricCatalogue(t)
	names := map[string][]string{} // metric name → files registering it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The metrics package itself and testdata register no
			// product metrics; dot-directories are not source.
			if path != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" ||
				filepath.ToSlash(path) == "internal/metrics" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registrars[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: metric name passed to %s is not a string literal, so the catalogue cannot be checked",
					fset.Position(call.Args[0].Pos()), sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Errorf("%s: %v", fset.Position(lit.Pos()), err)
				return true
			}
			names[name] = append(names[name], path)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no metric registrations found; scanner broken?")
	}

	var missing, stale []string
	for name := range names {
		if !catalogue[name] {
			missing = append(missing, name+" (registered in "+strings.Join(names[name], ", ")+")")
		}
	}
	for name := range catalogue {
		if names[name] == nil {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("metric names missing from the DESIGN.md §4c catalogue:\n  %s",
			strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("DESIGN.md §4c catalogue rows that nothing registers:\n  %s",
			strings.Join(stale, "\n  "))
	}
}
