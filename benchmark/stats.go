package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 over 300 samples is three observations, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// refusing when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// percentileOrZero is percentile for per-layer columns, where a layer the
// workload does not exercise has no samples: 0 reads as "not applicable".
func percentileOrZero(sorted []float64, p float64) float64 {
	v, err := percentile(sorted, p)
	if err != nil {
		return 0
	}
	return v
}

// median returns the middle value of xs (mean of the two middles for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den with an empty denominator reading as 0 (a layer that
// did no work in the window).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
