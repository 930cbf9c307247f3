package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets is the default latency bucket layout in seconds, tuned
// for protocol round stages that run from ten microseconds (a
// screening draw) to whole seconds (a TCP round with retries).
var DefBuckets = []float64{
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram counts observations into fixed upper-bound buckets with
// Prometheus cumulative-`le` semantics: an observation v lands in the
// first bucket whose bound satisfies v <= bound, and the implicit
// +Inf bucket catches the rest. All updates are atomic, so Observe is
// safe on hot paths; Sum uses a CAS loop on float bits.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram over the given upper bounds, which
// must be finite; they are sorted and deduplicated. A nil or empty
// bounds slice falls back to DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		clean = append(clean, b)
	}
	sort.Float64s(clean)
	dedup := clean[:0]
	for i, b := range clean {
		if i == 0 || b != clean[i-1] {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) == 0 {
		dedup = append(dedup, DefBuckets...)
	}
	return &Histogram{
		bounds: dedup,
		counts: make([]atomic.Int64, len(dedup)+1),
	}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bound
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot returns a consistent-enough copy for exposition. Buckets
// are read individually, so a snapshot taken mid-Observe may be off by
// the in-flight observation — acceptable for monitoring reads.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts is per-bucket (not cumulative) and one longer than Bounds;
// the final entry is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile by linear interpolation inside the
// bucket containing the target rank. Values in the +Inf bucket clamp
// to the highest finite bound; an empty histogram yields 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[len(s.Bounds)-1]
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		}
		next := cum + float64(c)
		if next >= rank && c > 0 {
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}
