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

// Vec is a family of metrics of one kind partitioned by an ordered set
// of label names: per-collector screening counts, per-committee chain
// heads, per-stage round latency. An unlabeled metric is a family with
// no labels and exactly one child. Children are created on first use
// and cached; callers on hot paths should resolve their child once
// (With) and hold it.
type Vec[M any] struct {
	name   string
	labels []string
	newM   func() *M
	// only is the single child of a family with no labels, so reaching
	// it costs no family lock.
	only *M
	mu   sync.Mutex
	kids map[string]*M
}

// CounterVec, GaugeVec and HistogramVec are the three metric families a
// Registry hands out.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

func newVec[M any](name string, labels []string, newM func() *M) *Vec[M] {
	v := &Vec[M]{name: name, labels: labels, newM: newM, kids: make(map[string]*M)}
	if len(labels) == 0 {
		v.only = newM()
		v.kids[""] = v.only
	}
	return v
}

// With returns the child for the given label values (in label order),
// creating it on first use. The number of values must match the number
// of label names; a mismatch panics, as it is always a programming
// error at an instrumentation site.
func (v *Vec[M]) With(values ...string) *M {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	if v.only != nil {
		return v.only
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.kids[key]
	if !ok {
		m = v.newM()
		v.kids[key] = m
	}
	return m
}

// each calls fn with every child's snapshot key — the bare name, or
// `name{k="v",...}` — in sorted label order. fn runs outside the family
// lock.
func (v *Vec[M]) each(fn func(key string, m *M)) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	kids := make([]*M, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		kids[i] = v.kids[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		key := v.name
		if len(v.labels) > 0 {
			key += "{" + renderLabels(v.labels, strings.Split(k, labelSep)) + "}"
		}
		fn(key, kids[i])
	}
}

// renderLabels renders `k1="v1",k2="v2"` in label order, escaping
// quotes, backslashes and newlines per the Prometheus text format.
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
