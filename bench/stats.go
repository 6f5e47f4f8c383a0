package main

import "sort"

// summary describes a sample the way every timing in the report is
// given: median, quartiles and n. The quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method), which is what
// the acceptance driver computes, so a spread printed here is the
// spread it will see.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"`
}

func summarize(v []float64) summary {
	s := summary{N: len(v), Values: append([]float64(nil), v...)}
	if len(v) == 0 {
		return s
	}
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	s.Median = quantileExclusive(x, 0.5)
	s.Q1 = quantileExclusive(x, 0.25)
	s.Q3 = quantileExclusive(x, 0.75)
	return s
}

// quantileExclusive interpolates the p-quantile of sorted x at position
// p·(n+1), clamped to the ends.
func quantileExclusive(x []float64, p float64) float64 {
	n := len(x)
	if n == 1 {
		return x[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		return x[0]
	}
	if j >= n {
		return x[n-1]
	}
	frac := pos - float64(j)
	return x[j-1] + frac*(x[j]-x[j-1])
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}
