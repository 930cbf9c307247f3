// Package admin serves a node's live telemetry over HTTP: Prometheus
// text metrics, a JSON metrics snapshot, health and readiness probes,
// the event stream (a transaction's trace is its events), and
// net/http/pprof. It is read-only and stdlib-only; repchain-node binds
// it behind -admin-addr and repchain-inspect scrapes it.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repchain/internal/events"
	"repchain/internal/metrics"
)

// Config assembles an admin server.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:9180". A ":0" port
	// picks a free one; read it back from Server.Addr.
	Addr string
	// Registry backs /metrics and /metrics.json; nil serves an empty
	// exposition.
	Registry *metrics.Registry
	// Events backs /events; nil serves an empty stream. Its evictions
	// are published as the events.dropped_total gauge at every metrics
	// scrape, so a truncated stream is detectable from /metrics.
	Events *events.Log
	// Ready backs /readyz: return ok plus a short status line. Nil
	// means always ready.
	Ready func() (ok bool, detail string)
}

// Server is a running admin endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start binds cfg.Addr and serves in a background goroutine.
func Start(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", cfg.Addr, err)
	}
	// The drop gauge is refreshed at scrape time, so it tracks the ring
	// without a background goroutine.
	snapshot := func() metrics.Snapshot { return metrics.Snapshot{} }
	if reg := cfg.Registry; reg != nil {
		dropped := reg.Gauge("events.dropped_total")
		snapshot = func() metrics.Snapshot {
			dropped.Set(float64(cfg.Events.Dropped()))
			return reg.Snapshot()
		}
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
		if cfg.Ready != nil {
			ok, detail = cfg.Ready()
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
		cfg.Events.WriteJSONL(w, f)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with a ":0" port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
