package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// labelSep joins label values into a map key. 0x1f (unit separator)
// cannot appear in sane label values, so the join is unambiguous.
const labelSep = "\x1f"

// CounterVec is a family of counters partitioned by an ordered set of
// label names — the `Registry.CounterVec`-style keyed metric the
// screening instrumentation uses for per-collector checked/unchecked
// counts. Children are created on first use and cached; callers on hot
// paths should resolve their child once (With) and hold the *Counter.
type CounterVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*Counter
}

func newCounterVec(name string, labels []string) *CounterVec {
	return &CounterVec{name: name, labels: labels, kids: make(map[string]*Counter)}
}

// With returns the child counter for the given label values (in label
// order), creating it on first use. The number of values must match
// the number of label names; a mismatch panics, as it is always a
// programming error at an instrumentation site.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[key]
	if !ok {
		c = &Counter{}
		v.kids[key] = c
	}
	return c
}

// vecChild pairs a rendered label string ("k=\"v\",...") with its
// counter, for exposition.
type vecChild struct {
	labels  string
	counter *Counter
}

// children returns the family's children sorted by label values.
func (v *CounterVec) children() []vecChild {
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	kids := make(map[string]*Counter, len(v.kids))
	for k, c := range v.kids {
		kids[k] = c
	}
	v.mu.Unlock()
	sort.Strings(keys)
	out := make([]vecChild, 0, len(keys))
	for _, k := range keys {
		out = append(out, vecChild{labels: renderLabels(v.labels, strings.Split(k, labelSep)), counter: kids[k]})
	}
	return out
}

// GaugeVec is a family of gauges partitioned by an ordered set of
// label names — used for per-committee levels such as
// `chain.height{committee="i"}` where one process hosts several chain
// heads. Children are created on first use and cached; callers on hot
// paths should resolve their child once (With) and hold the *Gauge.
type GaugeVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*Gauge
}

func newGaugeVec(name string, labels []string) *GaugeVec {
	return &GaugeVec{name: name, labels: labels, kids: make(map[string]*Gauge)}
}

// With returns the child gauge for the given label values (in label
// order), creating it on first use. Panics on arity mismatch.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.kids[key]
	if !ok {
		g = &Gauge{}
		v.kids[key] = g
	}
	return g
}

type vecGaugeChild struct {
	labels string
	gauge  *Gauge
}

// children returns the family's children sorted by label values.
func (v *GaugeVec) children() []vecGaugeChild {
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	kids := make(map[string]*Gauge, len(v.kids))
	for k, g := range v.kids {
		kids[k] = g
	}
	v.mu.Unlock()
	sort.Strings(keys)
	out := make([]vecGaugeChild, 0, len(keys))
	for _, k := range keys {
		out = append(out, vecGaugeChild{labels: renderLabels(v.labels, strings.Split(k, labelSep)), gauge: kids[k]})
	}
	return out
}

// HistogramVec is a family of histograms partitioned by label values,
// all sharing one bucket layout — used for per-stage round latency.
type HistogramVec struct {
	name   string
	labels []string
	bounds []float64
	mu     sync.Mutex
	kids   map[string]*Histogram
}

func newHistogramVec(name string, bounds []float64, labels []string) *HistogramVec {
	return &HistogramVec{name: name, labels: labels, bounds: bounds, kids: make(map[string]*Histogram)}
}

// With returns the child histogram for the given label values,
// creating it on first use. Panics on arity mismatch.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[key]
	if !ok {
		h = NewHistogram(v.bounds)
		v.kids[key] = h
	}
	return h
}

type vecHistChild struct {
	labels string
	hist   *Histogram
}

func (v *HistogramVec) children() []vecHistChild {
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	kids := make(map[string]*Histogram, len(v.kids))
	for k, h := range v.kids {
		kids[k] = h
	}
	v.mu.Unlock()
	sort.Strings(keys)
	out := make([]vecHistChild, 0, len(keys))
	for _, k := range keys {
		out = append(out, vecHistChild{labels: renderLabels(v.labels, strings.Split(k, labelSep)), hist: kids[k]})
	}
	return out
}

// renderLabels renders `k1="v1",k2="v2"` in label order, escaping
// quotes and backslashes per the Prometheus text format.
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
