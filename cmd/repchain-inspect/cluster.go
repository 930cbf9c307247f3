package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repchain/internal/events"
	"repchain/internal/fleet"
)

// parseAdmins turns a comma-separated -admins list into fleet nodes,
// naming each node by its address.
func parseAdmins(admins string) ([]fleet.Node, error) {
	var nodes []fleet.Node
	for _, a := range strings.Split(admins, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		nodes = append(nodes, fleet.Node{Name: a, URL: "http://" + a})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-admins needs at least one host:port")
	}
	return nodes, nil
}

// runCluster implements `repchain-inspect cluster`: scrape every admin
// endpoint and print a fleet health report and merged metrics, or —
// with `trace <txhash>` — the stitched cross-node trace with per-hop
// transport latency.
func runCluster(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	admins := fs.String("admins", "127.0.0.1:9180", "comma-separated admin endpoints of the cluster's nodes")
	asJSON := fs.Bool("json", false, "emit the report as JSON (for artifacts and tooling)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodes, err := parseAdmins(*admins)
	if err != nil {
		return err
	}
	cluster := fleet.Scraper{}.Scrape(nodes)

	if fs.NArg() > 0 {
		switch fs.Arg(0) {
		case "trace":
			if fs.NArg() != 2 {
				return fmt.Errorf("usage: repchain-inspect cluster -admins ... trace <txhash-or-prefix>")
			}
			return printMergedTrace(w, cluster, fs.Arg(1), *asJSON)
		default:
			return fmt.Errorf("unknown cluster subcommand %q (want: trace)", fs.Arg(0))
		}
	}

	health := cluster.Health()
	merged := cluster.MergedMetrics()
	if *asJSON {
		return json.NewEncoder(w).Encode(struct {
			Health  fleet.HealthReport `json:"health"`
			Traces  []string           `json:"traces"`
			Metrics any                `json:"metrics"`
		}{health, cluster.TraceIDs(), merged})
	}

	fmt.Fprintf(w, "cluster health: %d/100\n", health.Score)
	for _, f := range health.Findings {
		fmt.Fprintf(w, "  ! %s\n", f)
	}
	if len(health.Findings) == 0 {
		fmt.Fprintln(w, "  no findings")
	}
	sharded := false
	for _, cm := range health.Committees {
		if cm != 0 {
			sharded = true
			break
		}
	}
	fmt.Fprintf(w, "heights (max within-committee skew %d):\n", health.HeightSkew)
	for _, name := range sortedNames(health.Heights) {
		if sharded {
			fmt.Fprintf(w, "  %-28s %d (committee %d)\n", name, health.Heights[name], health.Committees[name])
			continue
		}
		fmt.Fprintf(w, "  %-28s %d\n", name, health.Heights[name])
	}
	if len(health.PeerLags) > 0 {
		fmt.Fprintln(w, "per-peer transport latency (recv - send timestamps):")
		for _, l := range health.PeerLags {
			fmt.Fprintf(w, "  %-22s -> %-22s n=%-5d mean=%-12s max=%s\n",
				l.From, l.To, l.Count, time.Duration(l.MeanNS), time.Duration(l.MaxNS))
		}
	}
	for _, s := range health.SlowRounds {
		fmt.Fprintf(w, "slow round: node=%s round=%d gap=%s p95=%s\n",
			s.Node, s.Round, time.Duration(s.GapNS), time.Duration(s.P95NS))
	}
	if ids := cluster.TraceIDs(); len(ids) > 0 {
		fmt.Fprintf(w, "traces: %d distinct transaction(s) stitchable across the fleet\n", len(ids))
	}
	return nil
}

func printMergedTrace(w io.Writer, cluster *fleet.Cluster, id string, asJSON bool) error {
	mt := cluster.MergedTrace(id)
	if len(mt.Events) == 0 {
		return fmt.Errorf("no events for trace %q anywhere in the fleet (propagation enabled, and the hash at least 8 hex chars?)", id)
	}
	if asJSON {
		return json.NewEncoder(w).Encode(mt)
	}
	fmt.Fprintf(w, "trace %s: %d events across the fleet\n", mt.Trace, len(mt.Events))
	for _, e := range mt.Events {
		printEvent(w, "  ", e)
	}
	if len(mt.Hops) > 0 {
		fmt.Fprintln(w, "transport hops:")
		for _, h := range mt.Hops {
			fmt.Fprintf(w, "  %-22s -> %-22s %-14s %s\n", h.From, h.To, h.Kind, time.Duration(h.LatencyNS))
		}
	}
	return nil
}

// runEvents implements `repchain-inspect events`: dump or tail a
// node's structured consensus event stream with round/node filters.
func runEvents(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:9180", "admin endpoint of a running repchain-node")
	node := fs.String("node", "", "only events from this node ID")
	round := fs.Uint64("round", 0, "only events from this round (0 = all)")
	follow := fs.Bool("follow", false, "keep polling for new events (live tail)")
	interval := fs.Duration("interval", time.Second, "poll interval with -follow")
	if err := fs.Parse(args); err != nil {
		return err
	}

	after := uint64(0)
	for {
		path := fmt.Sprintf("/events?after=%d", after)
		if *node != "" {
			path += "&node=" + *node
		}
		if *round != 0 {
			path += fmt.Sprintf("&round=%d", *round)
		}
		body, err := adminGet(*admin, path)
		if err != nil {
			return err
		}
		evs, err := events.Replay(body)
		body.Close()
		if err != nil {
			return err
		}
		for _, e := range evs {
			if e.Seq > after {
				after = e.Seq
			}
			printEvent(w, "", e)
		}
		if !*follow {
			return nil
		}
		time.Sleep(*interval)
	}
}
