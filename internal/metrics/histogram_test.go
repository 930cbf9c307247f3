package metrics

import (
	"math"
	"slices"
	"sync"
	"testing"
)

func TestNewHistogramCleansBounds(t *testing.T) {
	h := NewHistogram([]float64{3, 1, math.NaN(), 2, 1, math.Inf(1)})
	want := []float64{1, 2, 3}
	if len(h.bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}
	for i, b := range want {
		if h.bounds[i] != b {
			t.Fatalf("bounds = %v, want %v", h.bounds, want)
		}
	}
}

func TestNewHistogramDefaults(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {math.NaN(), math.Inf(-1)}} {
		h := NewHistogram(bounds)
		if len(h.bounds) != len(DefBuckets) {
			t.Fatalf("NewHistogram(%v) bounds = %v, want DefBuckets", bounds, h.bounds)
		}
	}
}

// TestHistogramBucketBoundary pins the cumulative-`le` convention: an
// observation equal to a bound lands in that bound's bucket, not the
// next one.
func TestHistogramBucketBoundary(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(1)   // == bound 1 → bucket 0
	h.Observe(1.5) // bucket 1 (le 2)
	h.Observe(2)   // == bound 2 → bucket 1
	h.Observe(4)   // == bound 4 → bucket 2
	h.Observe(9)   // +Inf bucket
	h.Observe(-1)  // below the first bound → bucket 0
	s := h.Snapshot()
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("Counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-16.5) > 1e-12 {
		t.Fatalf("Sum = %v, want 16.5", s.Sum)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("NaN observation recorded: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}

	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 4; i++ {
		h.Observe(1.5) // all in (1, 2]
	}
	s := h.Snapshot()
	if q := s.Quantile(math.NaN()); q != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", q)
	}
	// Out-of-range q clamps; all mass is inside (1, 2].
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := s.Quantile(q)
		if got < 1 || got > 2 {
			t.Fatalf("Quantile(%v) = %v, want within (1, 2]", q, got)
		}
	}
	// Median of a uniformly-attributed bucket interpolates to its middle.
	if got := s.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("Quantile(0.5) = %v, want 1.5", got)
	}
}

// TestDefBucketsResolveMicroseconds: stages of tens of microseconds
// fall in different default buckets, so a quantile over them is not
// read off one bucket spanning 0 to 100 µs.
func TestDefBucketsResolveMicroseconds(t *testing.T) {
	bucket := func(v float64) int {
		h := NewHistogram(DefBuckets)
		h.Observe(v)
		return slices.Index(h.Snapshot().Counts, 1)
	}
	if a, b := bucket(30e-6), bucket(70e-6); a == b {
		t.Fatalf("30 µs and 70 µs share default bucket %d", a)
	}
	h := NewHistogram(DefBuckets)
	for i := 0; i < 8; i++ {
		h.Observe(30e-6)
	}
	if q := h.Snapshot().Quantile(0.5); q >= 50e-6 {
		t.Fatalf("median of 30 µs samples reads %v s, want below 50 µs", q)
	}
}

func TestHistogramQuantileInfBucketClamps(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100) // +Inf bucket only
	if got := h.Snapshot().Quantile(0.99); got != 2 {
		t.Fatalf("Quantile in +Inf bucket = %v, want clamp to 2", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Counts[0] != 8000 {
		t.Fatalf("Count = %d, Counts = %v, want 8000 all in bucket 0", s.Count, s.Counts)
	}
	if math.Abs(s.Sum-2000) > 1e-6 {
		t.Fatalf("Sum = %v, want 2000", s.Sum)
	}
}
