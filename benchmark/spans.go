package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the child process started. Spans of one round
// share the trace id "<workload>/<round#>".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing at no cost, which is how the untraced run runs.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// start opens a span and returns its id (0 from a nil recorder).
func (r *recorder) start(name, trace string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(r.spans)
}

// record adds a span whose interval is already known.
func (r *recorder) record(name, trace string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.spans)
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part
// of that interval its direct children cover. Overlapping children are
// merged first, so time covered twice is subtracted once; a child
// reaching outside its parent only counts for the part inside.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// traceFile is what <out>/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Spans in start order.
	Spans []span `json:"spans"`
	// SelfTimeMS sums self time by span name over the whole run.
	SelfTimeMS map[string]float64 `json:"self_time_ms"`
	// TotalMS sums span duration by span name.
	TotalMS map[string]float64 `json:"total_ms"`
	// Counters holds the registry's counter and gauge deltas over the
	// measured window, taken at the same boundaries as the spans.
	Counters map[string]float64 `json:"counters"`
}

// writeTrace writes the run's spans and counter deltas to
// <dir>/trace-<workload>.json.
func (r *recorder) writeTrace(dir, workload string, seed int64, counters map[string]float64) (string, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	tf := traceFile{
		Workload:   workload,
		Seed:       seed,
		Spans:      spans,
		SelfTimeMS: make(map[string]float64),
		TotalMS:    make(map[string]float64),
		Counters:   counters,
	}
	self := selfTimes(spans)
	for _, s := range spans {
		tf.SelfTimeMS[s.Name] += float64(self[s.ID]) / 1e6
		tf.TotalMS[s.Name] += float64(s.End-s.Start) / 1e6
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
