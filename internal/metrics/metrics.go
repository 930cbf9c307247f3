// Package metrics provides the lightweight counters, gauges,
// histograms, and labeled metric families the protocol engine,
// transport, and benchmark runners record. It is deliberately small
// and dependency-free: experiments need deterministic accounting, the
// live node needs a Prometheus text exposition and a JSON snapshot,
// and neither needs a full telemetry stack.
package metrics

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use. Safe for concurrent use; updates are a single atomic add, so
// counters can sit on hot paths (per-verification, per-frame).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time level that can move both ways — the shape
// for republished snapshots of external state (cache traffic, chain
// heads). The zero value is ready to use. Safe for concurrent use; the
// float64 value is stored as atomic bits, so Set and Value are
// lock-free and Add is a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (either sign).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of metric families, one map per kind.
// The zero value is not usable; call NewRegistry. Safe for concurrent
// use. The registry lock guards only the name → family maps; each
// metric synchronizes its own updates, so hot-path Inc/Observe calls on
// an already-resolved metric never touch the registry lock.
//
// The first registration of a name fixes its label names (and, for a
// histogram, its bucket layout); later calls return that family
// whatever they pass, since a layout cannot change mid-flight.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*CounterVec
	gauges     map[string]*GaugeVec
	histograms map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*CounterVec),
		gauges:     make(map[string]*GaugeVec),
		histograms: make(map[string]*HistogramVec),
	}
}

// family returns the named family from m, creating it on first use.
func family[M any](r *Registry, m map[string]*Vec[M], name string, labels []string, newM func() *M) *Vec[M] {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = newVec(name, labels, newM)
		m[name] = v
	}
	return v
}

func newCounter() *Counter { return &Counter{} }
func newGauge() *Gauge     { return &Gauge{} }

// Counter returns the named unlabeled counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return family(r, r.counters, name, nil, newCounter).With()
}

// Gauge returns the named unlabeled gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return family(r, r.gauges, name, nil, newGauge).With()
}

// Histogram returns the named unlabeled histogram, creating it with the
// given ascending upper bounds on first use.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramVec(name, bounds).With()
}

// CounterVec returns the named counter family, creating it with the
// given label names on first use.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return family(r, r.counters, name, labels, newCounter)
}

// GaugeVec returns the named gauge family, creating it with the given
// label names on first use.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	return family(r, r.gauges, name, labels, newGauge)
}

// HistogramVec returns the named histogram family, creating it with the
// given bounds and label names on first use; every child shares the
// bucket layout.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	return family(r, r.histograms, name, labels, func() *Histogram { return NewHistogram(bounds) })
}

// Snapshot captures every metric in the registry — the one walk over
// it. The registry lock is held only to copy the family maps, so a slow
// reader never stalls metric creation on a hot path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters, gauges, histograms := maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.histograms)
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(histograms)),
	}
	for _, v := range counters {
		v.each(func(key string, c *Counter) { s.Counters[key] = c.Value() })
	}
	for _, v := range gauges {
		v.each(func(key string, g *Gauge) { s.Gauges[key] = g.Value() })
	}
	for _, v := range histograms {
		v.each(func(key string, h *Histogram) { s.Histograms[key] = h.Snapshot() })
	}
	return s
}

// Dump renders a snapshot of the registry for humans, one metric per
// line: counters, then gauges, then histograms (count, sum, p50, p95),
// each sorted by key.
func (r *Registry) Dump() string { return dump(r.Snapshot()) }
