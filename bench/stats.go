package main

import (
	"math"
	"sort"
)

// ladder is the percentiles the picker chooses from, ascending, each
// with the share of a sample that lies beyond it, in thousandths.
var ladder = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// pickPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n, so a reported tail
// is never one or two outliers. With fewer than twenty samples even the
// median has under ten beyond it, and 0 is returned.
func pickPercentile(n int) float64 {
	best := 0.0
	for _, l := range ladder {
		if n*l.beyond >= 10*1000 {
			best = l.p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a / b, 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
