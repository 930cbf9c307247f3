package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repchain/internal/events"
	"repchain/internal/fleet"
	"repchain/internal/metrics"
)

// traceID is the one transaction the fake admin endpoints hold events
// for; tracePrefix is the shortest prefix /events?trace= accepts.
const (
	traceID     = "aabbccdd00112233445566778899aabbccddeeff00112233445566778899aabb"
	tracePrefix = "aabbccdd"
)

// fakeAdmin serves what a repchain-node admin endpoint serves to the
// inspector: a metrics.Snapshot at /metrics.json and its event ring as
// JSONL at /events, filtered by the node, round, after and trace query
// parameters. It records each /events query.
type fakeAdmin struct {
	snap   metrics.Snapshot
	events []events.Event

	mu      sync.Mutex
	queries []url.Values
}

func (a *fakeAdmin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics.json":
		_ = json.NewEncoder(w).Encode(a.snap)
	case "/events":
		q := r.URL.Query()
		a.mu.Lock()
		a.queries = append(a.queries, q)
		a.mu.Unlock()
		f := events.Filter{Node: q.Get("node"), Trace: q.Get("trace")}
		f.Round, _ = strconv.ParseUint(q.Get("round"), 10, 64)
		f.AfterSeq, _ = strconv.ParseUint(q.Get("after"), 10, 64)
		enc := json.NewEncoder(w)
		for _, e := range a.events {
			if f.Match(e) {
				_ = enc.Encode(e)
			}
		}
	default:
		http.NotFound(w, r)
	}
}

// lastQuery returns the query of the latest /events request.
func (a *fakeAdmin) lastQuery(t *testing.T) url.Values {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.queries) == 0 {
		t.Fatal("no /events request")
	}
	return a.queries[len(a.queries)-1]
}

// governorAdmin returns governor g's fake endpoint: its chain height,
// one counter and one histogram, the traced transaction's hop from the
// collector and its label, and one round-scoped event.
func governorAdmin(g int) *fakeAdmin {
	node := "governor/" + strconv.Itoa(g)
	seq := uint64(10 * g)
	return &fakeAdmin{
		snap: metrics.Snapshot{
			Counters: map[string]int64{"node.uploads_total": 7},
			Gauges:   map[string]float64{"chain.height": 3},
			Histograms: map[string]metrics.HistogramSnapshot{
				"round.seconds": {Bounds: []float64{0.1, 1}, Counts: []int64{2, 2, 0}, Count: 4, Sum: 1.25},
			},
		},
		events: []events.Event{
			{Type: events.TypeHopReceived, Trace: traceID, Node: node, Round: 2, Seq: seq + 1,
				Attrs: []events.Attr{{Key: "from", Value: "collector/0"}, {Key: "kind", Value: "upload"}, {Key: "latency_ns", Value: "1500000"}}},
			{Type: events.TypeTxLabeled, Trace: traceID, Node: node, Round: 2, Seq: seq + 2,
				Attrs: []events.Attr{{Key: "label", Value: "1"}}},
			{Type: events.TypeQuorumChange, Node: node, Round: 3, Seq: seq + 3},
		},
	}
}

// serve starts a as an admin endpoint and returns its host:port.
func serve(t *testing.T, a *fakeAdmin) string {
	t.Helper()
	srv := httptest.NewServer(a)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// wantLines fails unless out holds every line of want, in order, each
// equal to one output line after trailing spaces are trimmed.
func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	i := 0
	for _, l := range lines {
		if i < len(want) && strings.TrimRight(l, " ") == want[i] {
			i++
		}
	}
	if i < len(want) {
		t.Fatalf("output lacks %q (after %d matched lines):\n%s", want[i], i, out)
	}
}

func TestInspectMetricsSubcommand(t *testing.T) {
	a := governorAdmin(0)
	addr := serve(t, a)
	var out bytes.Buffer
	if err := runMetrics([]string{"-admin", addr}, &out); err != nil {
		t.Fatal(err)
	}
	wantLines(t, out.String(),
		"counters:",
		"  node.uploads_total                           7",
		"gauges:",
		"  chain.height                                 3",
		"histograms:",
		"  round.seconds                                count=4 sum=1.25 p50=0.1 p95=0.91",
	)

	out.Reset()
	if err := runMetrics([]string{"-admin", addr, "-raw"}, &out); err != nil {
		t.Fatal(err)
	}
	var raw metrics.Snapshot
	if err := json.Unmarshal(out.Bytes(), &raw); err != nil {
		t.Fatalf("-raw output is not a snapshot: %v\n%s", err, out.String())
	}
	if raw.Counters["node.uploads_total"] != 7 || raw.Gauges["chain.height"] != 3 {
		t.Fatalf("-raw snapshot %+v", raw)
	}

	if err := runMetrics([]string{"-admin", serve(t, &fakeAdmin{})}, &out); err != nil {
		t.Fatalf("empty snapshot: %v", err)
	}
}

func TestInspectTraceSubcommand(t *testing.T) {
	a := governorAdmin(0)
	addr := serve(t, a)
	var out bytes.Buffer
	if err := runTrace([]string{"-admin", addr, tracePrefix}, &out); err != nil {
		t.Fatal(err)
	}
	if got := a.lastQuery(t).Get("trace"); got != tracePrefix {
		t.Fatalf("trace query %q, want %q", got, tracePrefix)
	}
	wantLines(t, out.String(),
		"trace "+traceID+": 2 events",
		"  seq 1      round 2    hop.received         governor/0             from=collector/0 kind=upload latency_ns=1500000",
		"  seq 2      round 2    tx.labeled           governor/0             label=1",
	)
	if strings.Contains(out.String(), events.TypeQuorumChange) {
		t.Fatalf("trace printed a round-scoped event:\n%s", out.String())
	}

	if err := runTrace([]string{"-admin", addr, "ffffffff"}, &out); err == nil || !strings.Contains(err.Error(), "no events recorded") {
		t.Fatalf("unknown trace: %v", err)
	}
	if err := runTrace([]string{"-admin", addr}, &out); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("no trace argument: %v", err)
	}
}

func TestInspectClusterSubcommand(t *testing.T) {
	addr0, addr1 := serve(t, governorAdmin(0)), serve(t, governorAdmin(1))
	admins := addr0 + "," + addr1
	var out bytes.Buffer
	if err := runCluster([]string{"-admins", admins}, &out); err != nil {
		t.Fatal(err)
	}
	wantLines(t, out.String(),
		"cluster health: 100/100",
		"  no findings",
		"heights (max within-committee skew 0):",
		"traces: 1 distinct transaction(s) stitchable across the fleet",
	)
	for _, addr := range []string{addr0, addr1} {
		if !strings.Contains(out.String(), "  "+addr) {
			t.Fatalf("no height line for %s:\n%s", addr, out.String())
		}
	}

	out.Reset()
	if err := runCluster([]string{"-admins", admins, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Health fleet.HealthReport `json:"health"`
		Traces []string           `json:"traces"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out.String())
	}
	if report.Health.Score != 100 || len(report.Health.Heights) != 2 || len(report.Traces) != 1 || report.Traces[0] != traceID {
		t.Fatalf("-json report %+v", report)
	}

	out.Reset()
	if err := runCluster([]string{"-admins", admins, "trace", tracePrefix}, &out); err != nil {
		t.Fatal(err)
	}
	wantLines(t, out.String(),
		"trace "+traceID+": 4 events across the fleet",
		"transport hops:",
		"  collector/0            -> governor/0             upload         1.5ms",
		"  collector/0            -> governor/1             upload         1.5ms",
	)

	if err := runCluster([]string{"-admins", admins, "trace", "ffffffff"}, &out); err == nil {
		t.Fatal("a trace no node holds printed without error")
	}
	if err := runCluster([]string{"-admins", admins, "blocks"}, &out); err == nil {
		t.Fatal("unknown cluster subcommand accepted")
	}
	if err := runCluster([]string{"-admins", " , "}, &out); err == nil {
		t.Fatal("empty -admins accepted")
	}
}

func TestInspectEventsSubcommand(t *testing.T) {
	a := governorAdmin(1)
	a.events = append(a.events, events.Event{Type: events.TypeTxLabeled, Trace: traceID, Node: "collector/0", Round: 2, Seq: 14})
	addr := serve(t, a)
	var out bytes.Buffer
	if err := runEvents([]string{"-admin", addr, "-node", "governor/1", "-round", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	q := a.lastQuery(t)
	if q.Get("after") != "0" || q.Get("node") != "governor/1" || q.Get("round") != "2" {
		t.Fatalf("events query %v", q)
	}
	if got, want := out.String(), "seq 11     round 2    hop.received         governor/1             from=collector/0 kind=upload latency_ns=1500000\n"+
		"seq 12     round 2    tx.labeled           governor/1             label=1\n"; got != want {
		t.Fatalf("events output:\n%s\nwant:\n%s", got, want)
	}

	out.Reset()
	if err := runEvents([]string{"-admin", addr}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 4 {
		t.Fatalf("unfiltered events printed %d lines, want 4:\n%s", n, out.String())
	}
}
