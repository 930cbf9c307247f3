// Package fleet aggregates telemetry scraped from several nodes' admin
// endpoints into one cluster-wide view: merged cross-node traces (a
// transaction's events from every node) with per-hop transport
// latency, a cluster health report (height skew, per-peer lag,
// slow-round detection against a rolling p95), and a merged metrics
// snapshot. It is the library behind `repchain-inspect cluster` and
// the first place where commit latency is measured across real
// processes instead of inside one.
//
// Everything here is read-only and stdlib-only. A node that fails to
// scrape degrades the view (recorded in its NodeState.Err) instead of
// failing the aggregation: a fleet tool that dies with its least
// healthy node cannot diagnose anything.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repchain/internal/events"
	"repchain/internal/metrics"
)

// Node names one admin endpoint to scrape. Name is the operator's
// label for the node (defaults to the URL when empty).
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// NodeState is everything scraped from one node. Err is non-empty when
// any of the node's endpoints failed; the fields that did scrape are
// still populated.
type NodeState struct {
	Node    Node              `json:"node"`
	Err     string            `json:"err,omitempty"`
	Metrics metrics.Snapshot  `json:"metrics"`
	Events  []events.Event    `json:"-"`
	Healthz map[string]string `json:"-"`
}

// Cluster is the scraped fleet.
type Cluster struct {
	Nodes []NodeState
}

// Scraper fetches admin endpoints. The zero value uses a 5-second
// default client.
type Scraper struct {
	Client *http.Client
}

func (s Scraper) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// Scrape pulls /metrics.json and /events from every node,
// sequentially and in order (deterministic output for a handful of
// endpoints matters more than scrape parallelism).
func (s Scraper) Scrape(nodes []Node) *Cluster {
	c := &Cluster{Nodes: make([]NodeState, len(nodes))}
	for i, n := range nodes {
		if n.Name == "" {
			n.Name = n.URL
		}
		st := NodeState{Node: n}
		var errs []string
		if err := s.getJSON(n.URL+"/metrics.json", &st.Metrics); err != nil {
			errs = append(errs, err.Error())
		}
		evs, err := s.getEvents(n.URL + "/events")
		if err != nil {
			errs = append(errs, err.Error())
		}
		st.Events = evs
		st.Err = strings.Join(errs, "; ")
		c.Nodes[i] = st
	}
	return c
}

func (s Scraper) getJSON(url string, out any) error {
	body, err := s.get(url)
	if err != nil {
		return err
	}
	defer body.Close()
	if err := json.NewDecoder(body).Decode(out); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

func (s Scraper) getEvents(url string) ([]events.Event, error) {
	body, err := s.get(url)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	evs, err := events.Replay(body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return evs, nil
}

func (s Scraper) get(url string) (io.ReadCloser, error) {
	resp, err := s.client().Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return resp.Body, nil
}

// MergedMetrics folds every node's snapshot into one cluster snapshot:
// counters and histogram buckets sum, gauges keep the last scraped
// value per name (per-node gauges like chain.height are surfaced
// separately in the health report, where skew is the signal).
func (c *Cluster) MergedMetrics() metrics.Snapshot {
	var snap metrics.Snapshot
	snap.Merge(metrics.Snapshot{})
	for _, n := range c.Nodes {
		snap.Merge(n.Metrics)
	}
	return snap
}

// Hop is one transport edge in a merged trace: the receiver's
// hop.received event names the sender, the message kind, and the wire
// latency it measured (receive wall clock minus the sender's embedded
// send timestamp; see DESIGN.md §4h for the clock model).
type Hop struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Kind      string `json:"kind"`
	LatencyNS int64  `json:"latency_ns"`
}

// MergedTrace is one transaction's cluster-wide event sequence.
type MergedTrace struct {
	Trace  string         `json:"trace"`
	Events []events.Event `json:"events"`
	Hops   []Hop          `json:"hops"`
}

// MergedTrace stitches every node's events for one trace ID (full or
// ≥8-char prefix) into a single ordered list. Events sort by wall clock
// when present (cross-process runs), falling back to (node, seq) so
// deterministic in-process traces stay stably ordered too.
func (c *Cluster) MergedTrace(id string) MergedTrace {
	if id == "" {
		return MergedTrace{}
	}
	var evs []events.Event
	full := id
	match := events.Filter{Trace: id}
	for _, n := range c.Nodes {
		for _, e := range n.Events {
			if match.Match(e) {
				if len(e.Trace) > len(full) {
					full = e.Trace
				}
				evs = append(evs, e)
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Wall != b.Wall {
			return a.Wall < b.Wall
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	mt := MergedTrace{Trace: full, Events: evs}
	for _, e := range evs {
		if e.Type != events.TypeHopReceived {
			continue
		}
		latency, _ := strconv.ParseInt(e.Attr("latency_ns"), 10, 64)
		mt.Hops = append(mt.Hops, Hop{From: e.Attr("from"), To: e.Node, Kind: e.Attr("kind"), LatencyNS: latency})
	}
	return mt
}

// TraceIDs returns every distinct trace ID seen across the fleet,
// sorted, so callers can enumerate what is stitchable.
func (c *Cluster) TraceIDs() []string {
	seen := make(map[string]bool)
	for _, n := range c.Nodes {
		for _, e := range n.Events {
			if e.Trace != "" {
				seen[e.Trace] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// PeerLag summarizes the wire latency observed on one directed peer
// edge, computed from the receiver's hop.received events.
type PeerLag struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count int    `json:"count"`
	// MeanNS and MaxNS are the mean and maximum observed latency.
	// Negative samples (clock skew beyond the one-way latency) are
	// kept: they are the evidence the clock model asks operators to
	// look at, not noise to hide.
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// SlowRound is one commit gap that exceeded the rolling p95 threshold.
type SlowRound struct {
	Node  string `json:"node"`
	Round uint64 `json:"round"`
	GapNS int64  `json:"gap_ns"`
	P95NS int64  `json:"p95_ns"`
}

// HealthReport is the cluster health assessment. Score is 0–100;
// the components that subtracted from it are listed in Findings so the
// number is auditable.
type HealthReport struct {
	Score    int               `json:"score"`
	Findings []string          `json:"findings"`
	Heights  map[string]uint64 `json:"heights"`
	// Committees maps node name to the committee it declared via the
	// chain.committee gauge (absent gauge = committee 0). Height skew is
	// judged within a committee: in a sharded cluster (DESIGN.md §4i)
	// different committees legitimately run different chains at
	// different heights, so comparing heads across committees would
	// manufacture skew that no governor can repair.
	Committees map[string]int64 `json:"committees,omitempty"`
	// HeightSkew is the largest within-committee head spread.
	HeightSkew uint64      `json:"height_skew"`
	PeerLags   []PeerLag   `json:"peer_lags"`
	SlowRounds []SlowRound `json:"slow_rounds"`
	Unreached  []string    `json:"unreached,omitempty"`
}

// slowRoundWindow and slowRoundFactor tune slow-round detection: a
// commit-to-commit gap is slow when it exceeds slowRoundFactor times
// the p95 of the previous slowRoundWindow gaps on the same node.
const (
	slowRoundWindow = 20
	slowRoundFactor = 1.5
	slowRoundMinObs = 5
)

// Health assesses the scraped fleet. The score starts at 100 and loses
// points for unreachable nodes (25 each), committed-height skew within
// a committee (10 per block, capped at 30), slow rounds (5 each,
// capped at 20), and transport send failures anywhere in the fleet
// (capped at 10).
func (c *Cluster) Health() HealthReport {
	rep := HealthReport{Score: 100, Heights: make(map[string]uint64), Committees: make(map[string]int64)}

	for _, n := range c.Nodes {
		if n.Err != "" {
			rep.Unreached = append(rep.Unreached, n.Node.Name)
			continue
		}
		if h, ok := n.Metrics.Gauges["chain.height"]; ok {
			rep.Heights[n.Node.Name] = uint64(h)
			rep.Committees[n.Node.Name] = int64(n.Metrics.Gauges["chain.committee"])
		}
	}
	penalty := 0
	if len(rep.Unreached) > 0 {
		penalty += 25 * len(rep.Unreached)
		rep.Findings = append(rep.Findings,
			fmt.Sprintf("%d node(s) unreachable: %s", len(rep.Unreached), strings.Join(rep.Unreached, ", ")))
	}

	// Heads are only comparable between governors of the same committee.
	type bounds struct {
		min, max uint64
		seen     bool
	}
	perCommittee := make(map[int64]*bounds)
	for name, h := range rep.Heights {
		b := perCommittee[rep.Committees[name]]
		if b == nil {
			b = &bounds{}
			perCommittee[rep.Committees[name]] = b
		}
		if !b.seen || h < b.min {
			b.min = h
		}
		if h > b.max {
			b.max = h
		}
		b.seen = true
	}
	var skewCommittee int64
	for cm, b := range perCommittee {
		if skew := b.max - b.min; skew > rep.HeightSkew {
			rep.HeightSkew = skew
			skewCommittee = cm
		}
	}
	if rep.HeightSkew > 0 {
		p := int(rep.HeightSkew) * 10
		if p > 30 {
			p = 30
		}
		penalty += p
		where := "across governors"
		if len(perCommittee) > 1 {
			where = fmt.Sprintf("across committee %d's governors", skewCommittee)
		}
		rep.Findings = append(rep.Findings,
			fmt.Sprintf("chain height skew of %d block(s) %s", rep.HeightSkew, where))
	}

	rep.PeerLags = c.peerLags()
	rep.SlowRounds = c.slowRounds()
	if len(rep.SlowRounds) > 0 {
		p := 5 * len(rep.SlowRounds)
		if p > 20 {
			p = 20
		}
		penalty += p
		rep.Findings = append(rep.Findings,
			fmt.Sprintf("%d slow round(s) beyond %gx the rolling p95 commit gap", len(rep.SlowRounds), slowRoundFactor))
	}

	var sendFailures int64
	for _, n := range c.Nodes {
		sendFailures += n.Metrics.Counters["transport.send_failures"]
	}
	if sendFailures > 0 {
		p := int(sendFailures)
		if p > 10 {
			p = 10
		}
		penalty += p
		rep.Findings = append(rep.Findings,
			fmt.Sprintf("%d exhausted transport deliveries fleet-wide", sendFailures))
	}

	rep.Score -= penalty
	if rep.Score < 0 {
		rep.Score = 0
	}
	return rep
}

// peerLags folds every hop.received event across the fleet into
// per-directed-edge latency summaries, sorted by (from, to).
func (c *Cluster) peerLags() []PeerLag {
	type acc struct {
		count int
		sum   int64
		max   int64
	}
	edges := make(map[[2]string]*acc)
	for _, n := range c.Nodes {
		for _, e := range n.Events {
			if e.Type != events.TypeHopReceived {
				continue
			}
			from := e.Attr("from")
			lat, err := strconv.ParseInt(e.Attr("latency_ns"), 10, 64)
			if from == "" || err != nil {
				continue
			}
			key := [2]string{from, e.Node}
			a := edges[key]
			if a == nil {
				a = &acc{max: lat}
				edges[key] = a
			}
			a.count++
			a.sum += lat
			if lat > a.max {
				a.max = lat
			}
		}
	}
	out := make([]PeerLag, 0, len(edges))
	for key, a := range edges {
		out = append(out, PeerLag{
			From:   key[0],
			To:     key[1],
			Count:  a.count,
			MeanNS: a.sum / int64(a.count),
			MaxNS:  a.max,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// slowRounds walks each node's block.committed events in order and
// flags commit-to-commit wall gaps exceeding slowRoundFactor times the
// p95 of the preceding slowRoundWindow gaps. Runs without wall clocks
// (deterministic simulations) have no gaps and flag nothing.
func (c *Cluster) slowRounds() []SlowRound {
	var out []SlowRound
	for _, n := range c.Nodes {
		var lastWall int64
		var gaps []int64
		for _, e := range n.Events {
			if e.Type != events.TypeBlockCommitted || e.Wall == 0 {
				continue
			}
			if lastWall != 0 {
				gap := e.Wall - lastWall
				if len(gaps) >= slowRoundMinObs {
					p95 := quantileNS(gaps, 0.95)
					if p95 > 0 && float64(gap) > slowRoundFactor*float64(p95) {
						out = append(out, SlowRound{
							Node:  e.Node,
							Round: e.Round,
							GapNS: gap,
							P95NS: p95,
						})
					}
				}
				gaps = append(gaps, gap)
				if len(gaps) > slowRoundWindow {
					gaps = gaps[1:]
				}
			}
			lastWall = e.Wall
		}
	}
	return out
}

// quantileNS returns the q-quantile of the samples (nearest-rank on a
// sorted copy).
func quantileNS(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
