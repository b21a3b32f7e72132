package main

import (
	"math"
	"sort"
)

// quartiles returns Q1, the median and Q3 of xs by the exclusive method
// (Python's statistics.quantiles(xs, n=4)), the spread statistic the
// benchmark is judged by. With fewer than two samples every quartile is
// the single value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	return exclusiveQuantile(s, 1), median(s), exclusiveQuantile(s, 3)
}

// exclusiveQuantile is statistics.quantiles' default method for the
// k-th of four cut points over sorted s.
func exclusiveQuantile(s []float64, k int) float64 {
	n := len(s)
	m := n + 1
	j := k * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := k*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// median of xs (which need not be sorted).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf returns the 0-based nearest-rank index of percentile p (0-100)
// among n sorted samples: the smallest index whose cumulative share
// reaches p.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// percentile is the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rankOf(p, len(s))]
}

// tailRank is the 0-based rank of the tail percentile among n sorted
// samples: p99 when at least ten samples lie beyond it, otherwise the
// highest rank that still has ten samples beyond it, and never below the
// median. It returns the rank and the percentile it stands for.
func tailRank(n int) (int, float64) {
	r := rankOf(99, n)
	if n-1-r < 10 {
		r = n - 11
	}
	if m := rankOf(50, n); r < m {
		return m, 50
	}
	return r, min(99, 100*float64(r+1)/float64(n))
}
