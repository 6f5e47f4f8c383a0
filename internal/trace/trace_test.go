package trace

import (
	"math"
	"testing"

	"flexdriver/internal/sim"
)

func TestFixed(t *testing.T) {
	d := NewSizeDist([]int{512}, []float64{1})
	r := sim.NewRand(1)
	for i := 0; i < 100; i++ {
		if d.Sample(r) != 512 {
			t.Fatal("fixed distribution wandered")
		}
	}
	if d.Mean() != 512 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestIMC2010Shape(t *testing.T) {
	d := IMC2010()
	// Small-packet-dominated data-center traffic: mean ~250 B.
	if m := d.Mean(); m < 180 || m > 350 {
		t.Fatalf("IMC mean = %.0f B, want ~250", m)
	}
	r := sim.NewRand(2)
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	// Sampling must roughly follow the configured weights.
	if frac := float64(counts[64]) / n; math.Abs(frac-0.70) > 0.02 {
		t.Fatalf("64 B fraction = %.3f, want ~0.70", frac)
	}
	if frac := float64(counts[1500]) / n; math.Abs(frac-0.10) > 0.02 {
		t.Fatalf("1500 B fraction = %.3f, want ~0.10", frac)
	}
	// Empirical mean close to analytic mean.
	var sum float64
	for s, c := range counts {
		sum += float64(s * c)
	}
	if got := sum / n; math.Abs(got-d.Mean()) > 10 {
		t.Fatalf("empirical mean %.1f vs analytic %.1f", got, d.Mean())
	}
}

// TestMeanNonUnitWeights checks Mean() normalizes by the weight sum, so
// weights need not add to 1.
func TestMeanNonUnitWeights(t *testing.T) {
	// Weights sum to 8: expected size = (10*6 + 30*2) / 8 = 15.
	d := NewSizeDist([]int{10, 30}, []float64{6, 2})
	if m := d.Mean(); math.Abs(m-15) > 1e-12 {
		t.Fatalf("mean = %v, want 15", m)
	}
	// Scaling all weights must not change the mean.
	scaled := NewSizeDist([]int{10, 30}, []float64{600, 200})
	if math.Abs(scaled.Mean()-d.Mean()) > 1e-12 {
		t.Fatalf("mean changed under weight scaling: %v vs %v", scaled.Mean(), d.Mean())
	}
}

// TestEmpiricalMeanMatchesAnalytic draws from a non-unit-weight
// distribution with a seeded generator and compares the sample mean to
// Mean().
func TestEmpiricalMeanMatchesAnalytic(t *testing.T) {
	d := NewSizeDist([]int{64, 512, 1500}, []float64{5, 2, 3})
	r := sim.NewRand(42)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(r))
	}
	got := sum / n
	want := d.Mean()
	// ±1% of the analytic mean is ~5 sigma at this sample count.
	if math.Abs(got-want) > 0.01*want {
		t.Fatalf("empirical mean %.2f vs analytic %.2f", got, want)
	}
}

// TestFixedEdge covers the degenerate single-size distribution: its
// support is one size, its mean is that size, and sampling never leaves
// it even at the cumulative boundary u == 1.
func TestFixedEdge(t *testing.T) {
	d := NewSizeDist([]int{1500}, []float64{1})
	if sz := d.sizes; len(sz) != 1 || sz[0] != 1500 {
		t.Fatalf("sizes = %v, want [1500]", sz)
	}
	if d.Mean() != 1500 {
		t.Fatalf("mean = %v", d.Mean())
	}
	r := sim.NewRand(9)
	for i := 0; i < 1000; i++ {
		if got := d.Sample(r); got != 1500 {
			t.Fatalf("sample = %d, want 1500", got)
		}
	}
}

func TestWeightsNormalized(t *testing.T) {
	d := NewSizeDist([]int{10, 20}, []float64{3, 1})
	r := sim.NewRand(3)
	small := 0
	const n = 40000
	for i := 0; i < n; i++ {
		if d.Sample(r) == 10 {
			small++
		}
	}
	if frac := float64(small) / n; math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("unnormalized weights: frac=%.3f", frac)
	}
}
