package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, procs, m, ok := parseBenchLine(
		"BenchmarkFullProtocolRound/workers=1-4 \t     100\t  1234567 ns/op\t 0.67 cache-hit-rate\t 912 tx/s\t 340 allocs/op")
	if !ok {
		t.Fatal("result line not recognized")
	}
	if name != "BenchmarkFullProtocolRound/workers=1" {
		t.Fatalf("name %q: GOMAXPROCS suffix not stripped", name)
	}
	if procs != 4 {
		t.Fatalf("procs = %d, want 4 from the -4 suffix", procs)
	}
	if m["ns/op"] != 1234567 || m["tx/s"] != 912 || m["allocs/op"] != 340 || m["cache-hit-rate"] != 0.67 {
		t.Fatalf("metrics %v", m)
	}

	// Sub-bench names carrying their own -N must keep it.
	name, _, _, ok = parseBenchLine("BenchmarkVerifyBatch/m=512-4 \t 50 \t 99 ns/op")
	if !ok || name != "BenchmarkVerifyBatch/m=512" {
		t.Fatalf("got %q, %v", name, ok)
	}

	// No GOMAXPROCS suffix at all: procs defaults to 1.
	_, procs, _, ok = parseBenchLine("BenchmarkPlain \t 50 \t 99 ns/op")
	if !ok || procs != 1 {
		t.Fatalf("suffixless line: procs=%d ok=%v, want 1 true", procs, ok)
	}

	for _, bad := range []string{
		"",
		"PASS",
		"ok  \trepchain\t1.2s",
		"BenchmarkFoo results pending", // non-numeric iteration count
		"--- BENCH: BenchmarkFoo-4",
	} {
		if _, _, _, ok := parseBenchLine(bad); ok {
			t.Fatalf("line %q parsed as a result", bad)
		}
	}
}

// TestParseBenchJSONReassembly checks that a benchmark name and its
// numbers arriving as separate Output events (how go test -json
// actually streams them) are stitched back together.
func TestParseBenchJSONReassembly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "round.json")
	stream := strings.Join([]string{
		`{"Action":"start","Package":"repchain"}`,
		`{"Action":"output","Package":"repchain","Output":"BenchmarkFullProtocolRound/workers=1-4         \t"}`,
		`{"Action":"output","Package":"repchain","Output":"     100\t  5000000 ns/op\t 640 tx/s\t 300 allocs/op\n"}`,
		`{"Action":"output","Package":"repchain/internal/crypto","Output":"BenchmarkVerifyBatch/m=8-4 \t 1000\t 80000 ns/op\t 12 allocs/op\n"}`,
		`{"Action":"pass","Package":"repchain"}`,
	}, "\n")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	got, procs, err := parseBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if procs != 4 {
		t.Fatalf("procs = %d, want 4 from the -4 suffixes", procs)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if got["BenchmarkFullProtocolRound/workers=1"]["tx/s"] != 640 {
		t.Fatalf("split result line not reassembled: %v", got)
	}
	if got["BenchmarkVerifyBatch/m=8"]["allocs/op"] != 12 {
		t.Fatalf("crypto package result lost: %v", got)
	}
}

// TestParseBenchJSONAveragesRepeats checks that a benchmark appearing
// several times in the stream (-count > 1, or an appended re-run) is
// reduced to the per-metric mean rather than last-sample-wins.
func TestParseBenchJSONAveragesRepeats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "round.json")
	stream := strings.Join([]string{
		`{"Action":"output","Package":"repchain","Output":"BenchmarkFullProtocolRound/workers=1-4 \t 100\t 1000 ns/op\t 600 tx/s\n"}`,
		`{"Action":"output","Package":"repchain","Output":"BenchmarkFullProtocolRound/workers=1-4 \t 100\t 3000 ns/op\t 800 tx/s\n"}`,
		`{"Action":"output","Package":"repchain","Output":"BenchmarkFullProtocolRound/workers=1-4 \t 100\t 2000 ns/op\n"}`,
	}, "\n")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := parseBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkFullProtocolRound/workers=1"]
	if m["ns/op"] != 2000 {
		t.Fatalf("ns/op mean = %v, want 2000", m["ns/op"])
	}
	// tx/s appeared on only two of the three lines: mean over two.
	if m["tx/s"] != 700 {
		t.Fatalf("tx/s mean = %v, want 700", m["tx/s"])
	}
}

func TestCheckGates(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1000, "allocs/op": 100, "tx/s": 1000},
		"BenchmarkB": {"ns/op": 500, "allocs/op": 4},
	}
	ok := map[string]map[string]float64{
		// +10% allocs and -10% tx/s sit exactly on the boundary: pass.
		"BenchmarkA": {"ns/op": 2000, "allocs/op": 110, "tx/s": 900},
		// Small absolute growth on a tiny count is absorbed by the slack.
		"BenchmarkB": {"ns/op": 400, "allocs/op": 9},
	}
	if f := check(base, ok, nil, 0.10, 0.10, 8); len(f) != 0 {
		t.Fatalf("boundary run failed: %v", f)
	}

	bad := map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1000, "allocs/op": 200, "tx/s": 500},
	}
	f := check(base, bad, nil, 0.10, 0.10, 8)
	if len(f) != 3 {
		t.Fatalf("got %d failures, want allocs + tx/s + missing BenchmarkB: %v", len(f), f)
	}
	joined := strings.Join(f, "\n")
	for _, want := range []string{"allocs/op 200", "tx/s 500", "missing from current run"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("failures %v missing %q", f, want)
		}
	}
}

// TestCheckExactAllocs: a benchmark under exact_allocs fails on one
// allocation more than its baseline and passes on as many or fewer.
func TestCheckExactAllocs(t *testing.T) {
	base := map[string]map[string]float64{"BenchmarkFrame": {"ns/op": 50000, "allocs/op": 10}}
	exact := []string{"BenchmarkFrame"}
	for allocs, want := range map[float64]string{9: "", 10: "", 11: "allocs/op 11 exceeds limit 10.0"} {
		cur := map[string]map[string]float64{"BenchmarkFrame": {"ns/op": 90000, "allocs/op": allocs}}
		f := check(base, cur, exact, 0.10, 0.10, 8)
		switch {
		case want == "" && len(f) != 0:
			t.Fatalf("allocs %v failed: %v", allocs, f)
		case want != "" && (len(f) != 1 || !strings.Contains(f[0], want)):
			t.Fatalf("allocs %v: failures %v, want %q", allocs, f, want)
		}
	}
	if f := check(base, base, []string{"BenchmarkGone"}, 0.10, 0.10, 8); len(f) != 1 || !strings.Contains(f[0], "gate erosion") {
		t.Fatalf("exact_allocs entry without a baseline: %v", f)
	}
}

func TestCheckRatios(t *testing.T) {
	cur := map[string]map[string]float64{
		"BenchmarkStoreReopen/height=100000/mode=replay":   {"ns/op": 60e6},
		"BenchmarkStoreReopen/height=100000/mode=snapshot": {"ns/op": 2e6},
	}
	pass := []ratioGate{{
		Slow: "BenchmarkStoreReopen/height=100000/mode=replay",
		Fast: "BenchmarkStoreReopen/height=100000/mode=snapshot",
		Min:  10,
	}}
	if f := checkRatios(pass, cur, 1); len(f) != 0 {
		t.Fatalf("30x run failed a 10x gate: %v", f)
	}

	tight := []ratioGate{{Slow: pass[0].Slow, Fast: pass[0].Fast, Min: 50, Note: "reopen"}}
	f := checkRatios(tight, cur, 1)
	if len(f) != 1 || !strings.Contains(f[0], "below required 50.0x") {
		t.Fatalf("30x run passed a 50x gate: %v", f)
	}

	// Max caps overhead: a 30x ratio passes max=35 but fails max=20.
	overhead := []ratioGate{{Slow: pass[0].Slow, Fast: pass[0].Fast, Max: 35}}
	if f := checkRatios(overhead, cur, 1); len(f) != 0 {
		t.Fatalf("30x run failed a max=35 cap: %v", f)
	}
	capped := []ratioGate{{Slow: pass[0].Slow, Fast: pass[0].Fast, Max: 20, Note: "tracing overhead"}}
	f = checkRatios(capped, cur, 1)
	if len(f) != 1 || !strings.Contains(f[0], "above allowed 20.00x") {
		t.Fatalf("30x run passed a max=20 cap: %v", f)
	}

	// Either side missing from the run is gate erosion, not a pass.
	for _, gone := range []string{pass[0].Slow, pass[0].Fast} {
		trimmed := map[string]map[string]float64{}
		for k, v := range cur {
			if k != gone {
				trimmed[k] = v
			}
		}
		f := checkRatios(pass, trimmed, 1)
		if len(f) != 1 || !strings.Contains(f[0], "gate erosion") {
			t.Fatalf("missing %s not flagged: %v", gone, f)
		}
	}
}

// TestCheckRatiosMinProcs covers parallel-scaling gates: below MinProcs
// a violated bound is informational, at or above it the bound gates
// hard, and missing benchmarks fail regardless of core count.
func TestCheckRatiosMinProcs(t *testing.T) {
	// committees=4 only 1.2x faster than committees=1: fails a 2x floor.
	cur := map[string]map[string]float64{
		"BenchmarkFullProtocolRound/committees=1": {"ns/op": 12e6},
		"BenchmarkFullProtocolRound/committees=4": {"ns/op": 10e6},
	}
	scaling := []ratioGate{{
		Slow:     "BenchmarkFullProtocolRound/committees=1",
		Fast:     "BenchmarkFullProtocolRound/committees=4",
		Min:      2,
		MinProcs: 2,
		Note:     "committee scaling",
	}}
	if f := checkRatios(scaling, cur, 1); len(f) != 0 {
		t.Fatalf("single-core run failed a minprocs=2 gate: %v", f)
	}
	f := checkRatios(scaling, cur, 4)
	if len(f) != 1 || !strings.Contains(f[0], "below required 2.0x") {
		t.Fatalf("multi-core run passed a violated minprocs gate: %v", f)
	}

	// Gate erosion is not excused by a low core count.
	delete(cur, "BenchmarkFullProtocolRound/committees=4")
	f = checkRatios(scaling, cur, 1)
	if len(f) != 1 || !strings.Contains(f[0], "gate erosion") {
		t.Fatalf("missing benchmark not flagged below minprocs: %v", f)
	}
}

// TestUpdatePreservesRatios writes a baseline with a ratio gate,
// rewrites it via writeBaseline with ratios carried over (the -update
// path), and checks the gate survived the round trip.
func TestUpdatePreservesRatios(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	ratios := []ratioGate{{Slow: "BenchmarkA", Fast: "BenchmarkB", Min: 10, Note: "reopen gate"}}
	cur := map[string]map[string]float64{"BenchmarkA": {"ns/op": 100}}
	exact := []string{"BenchmarkA"}
	if err := writeBaseline(path, cur, ratios, exact, "1s", "test"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got baselineFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Ratios) != 1 || got.Ratios[0] != ratios[0] {
		t.Fatalf("ratios did not survive rewrite: %+v", got.Ratios)
	}
	if len(got.ExactAllocs) != 1 || got.ExactAllocs[0] != exact[0] {
		t.Fatalf("exact_allocs did not survive rewrite: %+v", got.ExactAllocs)
	}
	if got.Benchmarks["BenchmarkA"]["ns/op"] != 100 {
		t.Fatalf("benchmarks lost: %+v", got.Benchmarks)
	}
}
