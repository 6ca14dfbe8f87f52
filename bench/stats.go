package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of ascending data with the method of
// Python's statistics.quantiles(method="exclusive"), the one the
// benchmark's acceptance rule uses for quartiles: position p*(n+1),
// clamped to the inner samples, linearly interpolated.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := pos - float64(j)
	return sorted[j-1] + delta*(sorted[j]-sorted[j-1])
}

// sortedCopy returns the values in ascending order without touching
// the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// minTail is the sample count a reported percentile must leave beyond
// it: a percentile with fewer samples above it is an outlier's value.
const minTail = 10

// tailOK reports whether n samples leave at least minTail beyond the
// p-quantile. The slack absorbs rounding in 1-p.
func tailOK(n int, p float64) bool { return float64(n)*(1-p) >= minTail-1e-9 }

// minSamples is the smallest sample count for which the p-quantile
// leaves minTail samples beyond it.
func minSamples(p float64) int { return int(math.Ceil(minTail/(1-p) - 1e-9)) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
