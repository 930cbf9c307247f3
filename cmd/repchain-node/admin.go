package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repchain/internal/events"
	"repchain/internal/metrics"
)

// adminMux serves the node's live telemetry behind -admin-addr, read-only
// and stdlib-only: Prometheus text metrics, a JSON metrics snapshot,
// health and readiness probes, the event stream (a transaction's trace
// is its events) and net/http/pprof; repchain-inspect scrapes it. A nil
// evlog serves an empty stream; a nil ready means always ready. The
// ring's evictions are published as the events.dropped_total gauge at
// every metrics scrape, so a truncated stream is detectable from
// /metrics without a background goroutine.
func adminMux(reg *metrics.Registry, evlog *events.Log, ready func() (ok bool, detail string)) *http.ServeMux {
	dropped := reg.Gauge("events.dropped_total")
	snapshot := func() metrics.Snapshot {
		dropped.Set(float64(evlog.Dropped()))
		return reg.Snapshot()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheusSnapshot(w, snapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ok, detail := true, "ok"
		if ready != nil {
			ok, detail = ready()
		}
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, detail)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := events.Filter{Node: q.Get("node"), Trace: q.Get("trace")}
		if v := q.Get("round"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad round", http.StatusBadRequest)
				return
			}
			f.Round = n
		}
		if v := q.Get("after"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad after", http.StatusBadRequest)
				return
			}
			f.AfterSeq = n
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		evlog.WriteJSONL(w, f)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
