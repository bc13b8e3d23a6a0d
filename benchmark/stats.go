package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for it to
// count as measured: a p95 needs at least 200 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// whether at least minBeyond samples lie beyond it.  xs is not modified.
func percentile(xs []float64, p float64) (v float64, valid bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// median is the interpolated middle value of xs (NaN when empty).
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the three quartile cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method, which extrapolates for very small samples), so a spread read here
// matches one computed from the same values in Python.  One sample gives
// three equal cut points.
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
