package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank convention: the smallest sample with at least p% of the
// samples at or below it, sorted[ceil(p/100·n)-1]. xs is not modified; an
// empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median is the 50th percentile under the same nearest-rank convention.
func median(xs []float64) float64 { return percentile(xs, 50) }

// above counts the samples strictly greater than v — how many samples back a
// percentile read at v.
func above(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// geomean returns the geometric mean of xs, or 0 when xs is empty or holds a
// non-positive value (the geometric mean is undefined there).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
