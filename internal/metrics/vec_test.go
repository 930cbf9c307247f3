package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatal("zero value should read 0")
	}
	g.Set(2.5)
	g.Add(1.5)
	if g.Value() != 4 {
		t.Fatalf("Value() = %v, want 4", g.Value())
	}
	g.Add(-5)
	if g.Value() != -1 {
		t.Fatalf("Value() = %v, want -1", g.Value())
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if math.Abs(g.Value()-4000) > 1e-6 {
		t.Fatalf("Value() = %v, want 4000", g.Value())
	}
}

func TestCounterVecWith(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("screen.checked_total", "collector")
	v.With("0").Add(3)
	v.With("0").Inc()
	v.With("1").Inc()
	if got := v.With("0").Value(); got != 4 {
		t.Fatalf("child 0 = %d, want 4 (child not cached?)", got)
	}
	if r.CounterVec("screen.checked_total", "collector") != v {
		t.Fatal("registry did not reuse vec")
	}
	var keys []string
	v.each(func(key string, _ *Counter) { keys = append(keys, key) })
	if len(keys) != 2 || keys[0] != `screen.checked_total{collector="0"}` || keys[1] != `screen.checked_total{collector="1"}` {
		t.Fatalf("children = %q", keys)
	}
}

func TestCounterVecArityPanics(t *testing.T) {
	v := NewRegistry().CounterVec("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

func TestHistogramVecSharedBounds(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("round.stage_seconds", []float64{1, 2}, "stage")
	v.With("screen").Observe(0.5)
	v.With("pack").Observe(1.5)
	if v.With("screen").Count() != 1 {
		t.Fatal("child histogram not cached")
	}
	snap := r.Snapshot()
	h, ok := snap.Histograms[`round.stage_seconds{stage="screen"}`]
	if !ok || h.Count != 1 || len(h.Bounds) != 2 {
		t.Fatalf("flattened snapshot missing screen child: %+v", snap.Histograms)
	}
}

func TestRenderLabelsEscapes(t *testing.T) {
	got := renderLabels([]string{"a", "b"}, []string{`x"y`, "p\nq"})
	want := `a="x\"y",b="p\nq"`
	if got != want {
		t.Fatalf("renderLabels = %q, want %q", got, want)
	}
}

func TestDumpIncludesVecChildren(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("checked", "collector").With("2").Inc()
	r.Histogram("lat", []float64{1}).Observe(0.5)
	r.HistogramVec("stage", []float64{1}, "stage").With("commit").Observe(0.5)
	r.Gauge("height").Set(7)
	dump := r.Dump()
	for _, want := range []string{`checked{collector="2"}`, "lat", "height", `stage{stage="commit"}`} {
		if !strings.Contains(dump, want) {
			t.Fatalf("Dump() missing %q:\n%s", want, dump)
		}
	}
}

// TestRegistryConcurrentMixed drives every metric kind from multiple
// goroutines; run under -race this proves the whole registry is safe.
func TestRegistryConcurrentMixed(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", nil).Observe(0.001)
				r.CounterVec("cv", "k").With("a").Inc()
				r.HistogramVec("hv", nil, "k").With("b").Observe(0.001)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c"] != 2400 || snap.Counters[`cv{k="a"}`] != 2400 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Histograms["h"].Count != 2400 || snap.Histograms[`hv{k="b"}`].Count != 2400 {
		t.Fatalf("histograms lost observations")
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("chain.height", "committee")
	v.With("0").Set(7)
	v.With("1").Set(9)
	if got := v.With("0").Value(); got != 7 {
		t.Fatalf("committee 0 height = %g, want 7", got)
	}
	if same := r.GaugeVec("chain.height", "committee"); same != v {
		t.Fatal("second GaugeVec registration returned a different family")
	}
	snap := r.Snapshot()
	if got := snap.Gauges[`chain.height{committee="0"}`]; got != 7 {
		t.Fatalf("snapshot committee 0 = %g, want 7", got)
	}
	if got := snap.Gauges[`chain.height{committee="1"}`]; got != 9 {
		t.Fatalf("snapshot committee 1 = %g, want 9", got)
	}
	var sb strings.Builder
	if err := WritePrometheusSnapshot(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `chain_height{committee="0"} 7`) {
		t.Fatalf("prometheus exposition missing labeled gauge:\n%s", sb.String())
	}
	if !strings.Contains(r.Dump(), `chain.height{committee="1"}`) {
		t.Fatal("Dump missing labeled gauge child")
	}
}

func TestGaugeVecArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label arity mismatch")
		}
	}()
	NewRegistry().GaugeVec("g", "a", "b").With("only-one")
}
