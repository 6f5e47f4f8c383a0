package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Median() != 0 || s.Percentile(99) != 0 || s.Percentile(0) != 0 || s.Percentile(100) != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestMeanMedian(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	approx(t, s.Mean(), 3, 1e-12, "mean")
	approx(t, s.Median(), 3, 1e-12, "median")
	approx(t, s.Percentile(0), 1, 0, "min")
	approx(t, s.Percentile(100), 5, 0, "max")
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	for i := 1; i <= 4; i++ {
		s.Add(float64(i)) // 1,2,3,4
	}
	approx(t, s.Percentile(0), 1, 0, "p0")
	approx(t, s.Percentile(100), 4, 0, "p100")
	approx(t, s.Percentile(50), 2.5, 1e-12, "p50")
	approx(t, s.Percentile(25), 1.75, 1e-12, "p25")
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Sample
		n := 1 + r.Intn(100)
		for i := 0; i < n; i++ {
			s.Add(r.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddAfterPercentile(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Median()
	s.Add(0)
	approx(t, s.Median(), 5, 1e-12, "median after re-add")
}

// TestOrderStatisticsPreserveInsertionOrder is the regression test for
// a bug where Percentile sorted the backing slice in place:
// callers that walked the series in arrival order (e.g. matching RTT
// samples to send timestamps) silently got sorted data after the first
// percentile query.
func TestOrderStatisticsPreserveInsertionOrder(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	var s Sample
	for _, v := range in {
		s.Add(v)
	}
	_ = s.Percentile(0)
	_ = s.Percentile(100)
	_ = s.Percentile(90)
	_ = s.Median()
	got := s.Values()
	if len(got) != len(in) {
		t.Fatalf("Values() length = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("insertion order lost: Values() = %v, want %v", got, in)
		}
	}
	// The order statistics themselves must still be right.
	approx(t, s.Percentile(0), 1, 0, "min")
	approx(t, s.Percentile(100), 5, 0, "max")
	approx(t, s.Median(), 3, 1e-12, "median")
}

func TestSummarize(t *testing.T) {
	var s Sample
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 1000 {
		t.Fatalf("N = %d", sum.N)
	}
	approx(t, sum.Mean, 500.5, 1e-9, "mean")
	approx(t, sum.P99, 990.01, 0.2, "p99")
	approx(t, sum.P999, 999.002, 0.2, "p99.9")
}
