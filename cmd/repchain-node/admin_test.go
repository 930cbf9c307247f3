package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repchain/internal/events"
	"repchain/internal/metrics"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("engine.rounds_total").Add(3)
	reg.CounterVec("screen.checked_total", "collector").With("0").Inc()
	var ready atomic.Bool

	srv := httptest.NewServer(adminMux(reg, nil, func() (bool, string) { return ready.Load(), "waiting for quorum" }))
	defer srv.Close()
	base := srv.URL

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	if code, body := get(t, base+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "waiting for quorum") {
		t.Fatalf("not-ready /readyz = %d %q", code, body)
	}
	ready.Store(true)
	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Fatalf("ready /readyz = %d", code)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"engine_rounds_total 3", `screen_checked_total{collector="0"} 1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, body := get(t, base+"/metrics.json"); code != 200 || !strings.Contains(body, `"engine.rounds_total":3`) {
		t.Fatalf("/metrics.json = %d %q", code, body)
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof = %d", code)
	}
}

func TestServerEventsEndpoint(t *testing.T) {
	evlog := events.NewLog(16)
	evlog.Emit(events.TypeBlockCommitted, "", 1, "governor/0", slog.Uint64("serial", 1))
	evlog.Emit(events.TypeBlockCommitted, "", 2, "governor/1", slog.Uint64("serial", 2))
	evlog.Emit(events.TypeLeaderElected, "", 2, "governor/0")
	evlog.Emit(events.TypeTxSigned, "aaaabbbbcccc", 2, "provider/0", slog.String("kind", "k"))

	srv := httptest.NewServer(adminMux(metrics.NewRegistry(), evlog, nil))
	defer srv.Close()
	base := srv.URL

	code, body := get(t, base+"/events")
	if code != 200 {
		t.Fatalf("/events = %d", code)
	}
	evs, err := events.Replay(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("replayed %d events, want 4", len(evs))
	}

	if code, body := get(t, base+"/events?node=governor/1"); code != 200 || strings.Count(body, "\n") != 1 {
		t.Fatalf("node filter = %d %q", code, body)
	}
	if code, body := get(t, base+"/events?round=2"); code != 200 || strings.Count(body, "\n") != 3 {
		t.Fatalf("round filter = %d %q", code, body)
	}
	if code, body := get(t, base+"/events?after=2"); code != 200 || strings.Count(body, "\n") != 2 {
		t.Fatalf("after filter = %d %q", code, body)
	}
	if code, body := get(t, base+"/events?trace=aaaabbbb"); code != 200 || strings.Count(body, "\n") != 1 || !strings.Contains(body, `"type":"tx.signed"`) {
		t.Fatalf("trace filter = %d %q", code, body)
	}
	if code, _ := get(t, base+"/events?after=zz"); code != http.StatusBadRequest {
		t.Fatalf("bad after param = %d, want 400", code)
	}
	if code, _ := get(t, base+"/events?round=zz"); code != http.StatusBadRequest {
		t.Fatalf("bad round param = %d, want 400", code)
	}
}

// TestServerRingGauges checks that each /metrics scrape publishes the
// event ring's drop gauge.
func TestServerRingGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	evlog := events.NewLog(2)
	evlog.Emit(events.TypeTxSigned, "aaaabbbbcccc", 1, "provider/0")
	evlog.Emit(events.TypeTxLabeled, "aaaabbbbcccc", 1, "collector/0")
	evlog.Emit(events.TypeLeaderElected, "", 1, "governor/0") // evicts one

	srv := httptest.NewServer(adminMux(reg, evlog, nil))
	defer srv.Close()
	base := srv.URL

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "events_dropped_total 1") {
		t.Fatalf("/metrics missing events_dropped_total 1:\n%s", body)
	}
}

func TestServerNilEventsAndReady(t *testing.T) {
	srv := httptest.NewServer(adminMux(metrics.NewRegistry(), nil, nil))
	defer srv.Close()
	base := srv.URL
	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Fatalf("nil Ready should default to ready, got %d", code)
	}
	if code, body := get(t, base+"/events?trace=aaaabbbb"); code != 200 || strings.TrimSpace(body) != "" {
		t.Fatalf("nil log /events = %d %q", code, body)
	}
	if code, _ := get(t, base+"/metrics"); code != 200 {
		t.Fatal("an empty registry should still expose /metrics")
	}
}
