package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Snapshot is a point-in-time JSON-ready view of a registry. Labeled
// children are flattened into `name{k="v",...}` keys so the snapshot
// stays a flat map consumers can diff.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Merge folds other into s: counters and histogram buckets with the
// same name are summed and gauges are overwritten. Fleet views and the
// benchmark use it to combine several nodes' or committees' snapshots.
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for n, v := range other.Counters {
		s.Counters[n] += v
	}
	for n, v := range other.Gauges {
		s.Gauges[n] = v
	}
	for n, v := range other.Histograms {
		cur, ok := s.Histograms[n]
		if !ok || len(cur.Bounds) != len(v.Bounds) {
			s.Histograms[n] = v
			continue
		}
		merged := HistogramSnapshot{
			Bounds: cur.Bounds,
			Counts: make([]int64, len(cur.Counts)),
			Count:  cur.Count + v.Count,
			Sum:    cur.Sum + v.Sum,
		}
		copy(merged.Counts, cur.Counts)
		for i := range v.Counts {
			if i < len(merged.Counts) {
				merged.Counts[i] += v.Counts[i]
			}
		}
		s.Histograms[n] = merged
	}
}

func dump(s Snapshot) string {
	var b strings.Builder
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%-40s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "%-40s %g\n", n, s.Gauges[n])
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-40s n=%d sum=%.4g p50=%.4g p95=%.4g\n",
			n, h.Count, h.Sum, h.Quantile(0.50), h.Quantile(0.95))
	}
	return b.String()
}

// WritePrometheusSnapshot renders a snapshot in the Prometheus text
// exposition format (version 0.0.4). Metric names are sanitized (`.`
// and `-` become `_`); histograms emit cumulative `_bucket{le=}` lines
// plus `_sum`/`_count`.
func WritePrometheusSnapshot(w io.Writer, s Snapshot) error {
	var b strings.Builder
	for _, n := range sortedKeys(s.Counters) {
		base, labels := splitLabels(n)
		fmt.Fprintf(&b, "%s%s %d\n", promName(base), labels, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		base, labels := splitLabels(n)
		fmt.Fprintf(&b, "%s%s %g\n", promName(base), labels, s.Gauges[n])
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		base, labels := splitLabels(n)
		name := promName(base)
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, withLE(labels, fmt.Sprintf("%g", bound)), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %g\n", name, labels, h.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", name, labels, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// splitLabels separates a flattened `name{...}` key into the bare name
// and its `{...}` label block (empty when unlabeled).
func splitLabels(n string) (base, labels string) {
	if i := strings.IndexByte(n, '{'); i >= 0 {
		return n[:i], n[i:]
	}
	return n, ""
}

// withLE appends an `le` label to an existing (possibly empty) label
// block.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// promName maps a registry metric name to a legal Prometheus name:
// letters, digits, underscores, and colons; everything else becomes an
// underscore, and a leading digit gains an underscore prefix.
func promName(n string) string {
	var b strings.Builder
	for i, r := range n {
		switch {
		case r >= '0' && r <= '9' && i == 0:
			b.WriteByte('_')
			b.WriteRune(r)
		case r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9'):
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
