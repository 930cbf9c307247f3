package metrics

import (
	"strings"
	"testing"
)

func TestSnapshotFlattens(t *testing.T) {
	r := NewRegistry()
	r.Counter("blocks").Add(2)
	r.Gauge("chain.height").Set(9)
	r.CounterVec("checked", "collector").With("1").Inc()
	snap := r.Snapshot()
	if snap.Counters["blocks"] != 2 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Gauges["chain.height"] != 9 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if snap.Counters[`checked{collector="1"}`] != 1 {
		t.Fatalf("vec child not flattened: %+v", snap.Counters)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(2)
	a.Gauge("g").Set(1)
	a.Histogram("h", []float64{1, 2}).Observe(0.5)
	b := NewRegistry()
	b.Counter("c").Add(3)
	b.Gauge("g").Set(7)
	b.Histogram("h", []float64{1, 2}).Observe(1.5)

	var m Snapshot
	m.Merge(a.Snapshot())
	m.Merge(b.Snapshot())
	if m.Counters["c"] != 5 {
		t.Fatalf("merged counter = %d, want 5", m.Counters["c"])
	}
	if m.Gauges["g"] != 7 {
		t.Fatalf("merged gauge = %v, want 7 (last write wins)", m.Gauges["g"])
	}
	h := m.Histograms["h"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.rounds_total").Add(4)
	r.Gauge("chain.height").Set(4)
	r.Histogram("lat", []float64{1, 2}).Observe(0.5)
	r.Histogram("lat", nil).Observe(1.5)
	r.CounterVec("screen.checked_total", "collector").With("0").Inc()
	var sb strings.Builder
	if err := WritePrometheusSnapshot(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"engine_rounds_total 4",
		"chain_height 4",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`, // cumulative, not per-bucket
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 2",
		"lat_count 2",
		`screen_checked_total{collector="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	tests := map[string]string{
		"round.stage_seconds": "round_stage_seconds",
		"sig-cache:hits":      "sig_cache:hits",
		"9lives":              "_9lives",
	}
	for in, want := range tests {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWithLE(t *testing.T) {
	if got := withLE("", "1"); got != `{le="1"}` {
		t.Fatalf("withLE empty = %q", got)
	}
	if got := withLE(`{stage="pack"}`, "+Inf"); got != `{stage="pack",le="+Inf"}` {
		t.Fatalf("withLE labeled = %q", got)
	}
}
