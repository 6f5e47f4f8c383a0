// Package stats provides small statistics helpers (mean, percentiles,
// histograms) for latency and throughput series produced by the simulated
// experiments.
package stats

import (
	"math"
	"sort"
)

// Sample accumulates float64 observations in insertion order. Order
// statistics (Percentile, Median) work on a lazily maintained sorted
// copy, so querying them never reorders the observations themselves —
// callers may interleave percentile reads with order-sensitive walks of
// the series.
type Sample struct {
	vals   []float64
	sorted []float64 // lazy sorted copy; nil when stale
}

// NewSample returns a sample preallocated for about sizeHint
// observations, avoiding the append growth path (and its copies) that
// shows up in cluster-scale profiles. A non-positive hint is the same as
// a zero Sample.
func NewSample(sizeHint int) *Sample {
	s := &Sample{}
	if sizeHint > 0 {
		s.vals = make([]float64, 0, sizeHint)
	}
	return s
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = nil
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Values returns the observations in insertion order. The slice is the
// sample's backing store; callers must not modify it.
func (s *Sample) Values() []float64 { return s.vals }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

func (s *Sample) ensureSorted() []float64 {
	if s.sorted == nil {
		s.sorted = append(make([]float64, 0, len(s.vals)), s.vals...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks, or 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	v := s.ensureSorted()
	if p <= 0 {
		return v[0]
	}
	if p >= 100 {
		return v[len(v)-1]
	}
	rank := p / 100 * float64(len(v)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return v[lo]
	}
	frac := rank - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Summary holds the latency summary shape used by the paper's Table 6.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P99    float64
	P999   float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		Median: s.Median(),
		P99:    s.Percentile(99),
		P999:   s.Percentile(99.9),
	}
}
