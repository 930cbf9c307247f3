package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repchain/internal/events"
	"repchain/internal/metrics"
)

// adminGet fetches a path from a node's -admin-addr endpoint.
func adminGet(addr, path string) (io.ReadCloser, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + addr + path
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return resp.Body, nil
}

// runMetrics implements `repchain-inspect metrics`: scrape
// /metrics.json from a running node and print a readable snapshot.
func runMetrics(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:9180", "admin endpoint of a running repchain-node")
	raw := fs.Bool("raw", false, "dump the JSON snapshot verbatim")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := adminGet(*admin, "/metrics.json")
	if err != nil {
		return err
	}
	defer body.Close()

	if *raw {
		_, err := io.Copy(w, body)
		return err
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(body).Decode(&snap); err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	printSnapshot(w, snap)
	return nil
}

func printSnapshot(w io.Writer, snap metrics.Snapshot) {
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedNames(snap.Counters) {
			fmt.Fprintf(w, "  %-44s %d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedNames(snap.Gauges) {
			fmt.Fprintf(w, "  %-44s %g\n", name, snap.Gauges[name])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, name := range sortedNames(snap.Histograms) {
			h := snap.Histograms[name]
			fmt.Fprintf(w, "  %-44s count=%d sum=%.6g p50=%.6g p95=%.6g\n",
				name, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.95))
		}
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runTrace implements `repchain-inspect trace <txhash>`: fetch the
// transaction's events from /events?trace= and print them sign to
// commit in recording order.
func runTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:9180", "admin endpoint of a running repchain-node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: repchain-inspect trace [-admin host:port] <txhash-or-prefix>")
	}
	txID := fs.Arg(0)
	body, err := adminGet(*admin, "/events?trace="+url.QueryEscape(txID))
	if err != nil {
		return err
	}
	defer body.Close()
	evs, err := events.Replay(body)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("no events recorded for %q (is the event log on, and the hash at least 8 hex chars?)", txID)
	}
	fmt.Fprintf(w, "trace %s: %d events\n", evs[0].Trace, len(evs))
	for _, e := range evs {
		printEvent(w, "  ", e)
	}
	return nil
}

// printEvent prints one event on one line: wall clock when recorded,
// seq, round, type, node and attrs.
func printEvent(w io.Writer, indent string, e events.Event) {
	attrs := make([]string, 0, len(e.Attrs))
	for _, a := range e.Attrs {
		attrs = append(attrs, a.Key+"="+a.Value)
	}
	wall := ""
	if e.Wall != 0 {
		wall = time.Unix(0, e.Wall).Format("15:04:05.000000") + " "
	}
	fmt.Fprintf(w, "%s%sseq %-6d round %-4d %-20s %-22s %s\n",
		indent, wall, e.Seq, e.Round, e.Type, e.Node, strings.Join(attrs, " "))
}
