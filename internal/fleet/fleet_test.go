package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repchain/internal/events"
	"repchain/internal/metrics"
)

// fakeAdmin serves the two scraped endpoints from canned data.
func fakeAdmin(t *testing.T, snap metrics.Snapshot, evs []events.Event) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		if err := json.NewEncoder(w).Encode(snap); err != nil {
			t.Error(err)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		enc := json.NewEncoder(w)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				t.Error(err)
			}
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

const testTrace = "deadbeefdeadbeefdeadbeefdeadbeef"

func twoNodeCluster(t *testing.T) *Cluster {
	t.Helper()
	send := events.Event{
		Type: events.TypeHopSent, Trace: testTrace, Node: "governor/0",
		Seq: 1, Wall: 1000,
		Attrs: []events.Attr{{Key: "to", Value: "governor/1"}, {Key: "kind", Value: "block"}},
	}
	recv := events.Event{
		Type: events.TypeHopReceived, Trace: testTrace, Node: "governor/1",
		Seq: 1, Wall: 2500,
		Attrs: []events.Attr{
			{Key: "from", Value: "governor/0"},
			{Key: "kind", Value: "block"},
			{Key: "parent", Value: "1"},
			{Key: "sent_ns", Value: "1000"},
			{Key: "latency_ns", Value: "1500"},
		},
	}
	a := fakeAdmin(t,
		metrics.Snapshot{
			Counters: map[string]int64{"transport.frames_sent": 10},
			Gauges:   map[string]float64{"chain.height": 5},
		},
		[]events.Event{send})
	b := fakeAdmin(t,
		metrics.Snapshot{
			Counters: map[string]int64{"transport.frames_sent": 7},
			Gauges:   map[string]float64{"chain.height": 5},
		},
		[]events.Event{recv})
	return Scraper{}.Scrape([]Node{
		{Name: "governor/0", URL: a.URL},
		{Name: "governor/1", URL: b.URL},
	})
}

func TestScrapeAndMergedMetrics(t *testing.T) {
	c := twoNodeCluster(t)
	for _, n := range c.Nodes {
		if n.Err != "" {
			t.Fatalf("node %s error: %s", n.Node.Name, n.Err)
		}
	}
	merged := c.MergedMetrics()
	if got := merged.Counters["transport.frames_sent"]; got != 17 {
		t.Fatalf("merged frames_sent = %d, want 17 (counters must sum)", got)
	}
	if got := merged.Gauges["chain.height"]; got != 5 {
		t.Fatalf("merged chain.height = %v", got)
	}
}

func TestMergedTraceStitchesAcrossNodes(t *testing.T) {
	c := twoNodeCluster(t)
	mt := c.MergedTrace(testTrace[:8]) // prefix match
	if mt.Trace != testTrace {
		t.Fatalf("trace = %q, want full id from prefix", mt.Trace)
	}
	if len(mt.Events) != 2 {
		t.Fatalf("events = %d, want 2 (one per node)", len(mt.Events))
	}
	if mt.Events[0].Type != events.TypeHopSent || mt.Events[1].Type != events.TypeHopReceived {
		t.Fatalf("wall ordering broken: %s then %s", mt.Events[0].Type, mt.Events[1].Type)
	}
	if len(mt.Hops) != 1 {
		t.Fatalf("hops = %d, want 1", len(mt.Hops))
	}
	h := mt.Hops[0]
	if h.From != "governor/0" || h.To != "governor/1" || h.Kind != "block" || h.LatencyNS != 1500 {
		t.Fatalf("hop = %+v", h)
	}
	if ids := c.TraceIDs(); len(ids) != 1 || ids[0] != testTrace {
		t.Fatalf("TraceIDs() = %v", ids)
	}
	if short := c.MergedTrace("dead"); len(short.Events) != 0 {
		t.Fatal("sub-8-char prefix must not match")
	}
}

func TestHealthHealthyCluster(t *testing.T) {
	c := twoNodeCluster(t)
	rep := c.Health()
	if rep.Score != 100 {
		t.Fatalf("score = %d (findings: %v), want 100", rep.Score, rep.Findings)
	}
	if rep.HeightSkew != 0 || len(rep.Unreached) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.PeerLags) != 1 {
		t.Fatalf("peer lags = %+v", rep.PeerLags)
	}
	l := rep.PeerLags[0]
	if l.From != "governor/0" || l.To != "governor/1" || l.Count != 1 || l.MeanNS != 1500 || l.MaxNS != 1500 {
		t.Fatalf("lag = %+v", l)
	}
}

func TestHealthPenalties(t *testing.T) {
	a := fakeAdmin(t, metrics.Snapshot{
		Gauges:   map[string]float64{"chain.height": 10},
		Counters: map[string]int64{"transport.send_failures": 3},
	}, nil)
	b := fakeAdmin(t, metrics.Snapshot{
		Gauges: map[string]float64{"chain.height": 8},
	}, nil)
	c := Scraper{}.Scrape([]Node{
		{Name: "g0", URL: a.URL},
		{Name: "g1", URL: b.URL},
		{Name: "gone", URL: "http://127.0.0.1:1"}, // nothing listens here
	})
	rep := c.Health()
	// 100 - 25 (unreachable) - 20 (skew 2 × 10) - 3 (send failures).
	if rep.Score != 52 {
		t.Fatalf("score = %d (findings: %v), want 52", rep.Score, rep.Findings)
	}
	if len(rep.Unreached) != 1 || rep.Unreached[0] != "gone" {
		t.Fatalf("unreached = %v", rep.Unreached)
	}
	if rep.HeightSkew != 2 {
		t.Fatalf("skew = %d", rep.HeightSkew)
	}
	if len(rep.Findings) != 3 {
		t.Fatalf("findings = %v", rep.Findings)
	}
}

// TestHealthSkewPerCommittee: in a sharded cluster, heads are only
// comparable between governors of the same committee — two committees
// at heights 10 and 4 are healthy, while a 1-block spread inside one
// committee still scores as skew.
func TestHealthSkewPerCommittee(t *testing.T) {
	nodes := []Node{}
	for _, n := range []struct {
		name      string
		height    float64
		committee float64
	}{
		{"c0/g0", 10, 0},
		{"c0/g1", 10, 0},
		{"c1/g0", 4, 1},
		{"c1/g1", 3, 1},
	} {
		srv := fakeAdmin(t, metrics.Snapshot{
			Gauges: map[string]float64{"chain.height": n.height, "chain.committee": n.committee},
		}, nil)
		nodes = append(nodes, Node{Name: n.name, URL: srv.URL})
	}
	rep := Scraper{}.Scrape(nodes).Health()
	if rep.HeightSkew != 1 {
		t.Fatalf("within-committee skew = %d, want 1 (cross-committee spread must not count)", rep.HeightSkew)
	}
	if rep.Score != 90 {
		t.Fatalf("score = %d (findings: %v), want 90", rep.Score, rep.Findings)
	}
	if rep.Committees["c1/g1"] != 1 || rep.Committees["c0/g0"] != 0 {
		t.Fatalf("committees = %v", rep.Committees)
	}
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f, "committee 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("findings %v do not name the skewed committee", rep.Findings)
	}
}

func TestHealthSlowRounds(t *testing.T) {
	// Steady 100ns commit cadence, then one 10x gap at the end. The p95
	// of the preceding window is 100, so the 1000ns gap is slow.
	var evs []events.Event
	wall := int64(1000)
	for i := 0; i < 10; i++ {
		evs = append(evs, events.Event{
			Type: events.TypeBlockCommitted, Node: "governor/0",
			Round: uint64(i + 1), Seq: uint64(i + 1), Wall: wall,
		})
		wall += 100
	}
	evs = append(evs, events.Event{
		Type: events.TypeBlockCommitted, Node: "governor/0",
		Round: 11, Seq: 11, Wall: wall + 900, // gap = 1000
	})
	srv := fakeAdmin(t, metrics.Snapshot{Gauges: map[string]float64{"chain.height": 11}}, evs)
	c := Scraper{}.Scrape([]Node{{Name: "governor/0", URL: srv.URL}})
	rep := c.Health()
	if len(rep.SlowRounds) != 1 {
		t.Fatalf("slow rounds = %+v, want exactly one", rep.SlowRounds)
	}
	s := rep.SlowRounds[0]
	if s.Node != "governor/0" || s.Round != 11 || s.GapNS != 1000 || s.P95NS != 100 {
		t.Fatalf("slow round = %+v", s)
	}
	if rep.Score != 95 {
		t.Fatalf("score = %d, want 95 (one slow round)", rep.Score)
	}
}

func TestScrapeRecordsPerNodeErrors(t *testing.T) {
	// A node serving only metrics degrades but still contributes them.
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"counters":{"transport.frames_sent":1}}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := Scraper{}.Scrape([]Node{{Name: "partial", URL: srv.URL}})
	n := c.Nodes[0]
	if n.Err == "" {
		t.Fatal("missing endpoints must surface in NodeState.Err")
	}
	if n.Metrics.Counters["transport.frames_sent"] != 1 {
		t.Fatal("the endpoints that did scrape must still populate")
	}
}
