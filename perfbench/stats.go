package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the samples at or below
// it, i.e. sorted[ceil(p/100·n)−1]. It sorts xs in place and returns 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// tailCount is how many of n samples lie strictly beyond the
// nearest-rank p-th percentile: the sample count behind a tail figure.
func tailCount(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// median is the middle of xs (the mean of the two middle values for an
// even count). It sorts xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share is num/den, 0 when den is 0.
func share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
