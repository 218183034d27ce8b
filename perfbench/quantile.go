package main

import (
	"math"
	"slices"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// quantile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, p)
}

func sortedQuantile(s []float64, p float64) float64 {
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// tailPercentile returns the highest percentile, capped at want, that has
// at least tailSamples of n samples beyond it: with 500 samples a p99
// would rest on five points, so p98 is reported instead. Below 2·tailSamples
// samples the median is the only percentile left.
func tailPercentile(n int, want float64) float64 {
	if n < 2*tailSamples {
		return 50
	}
	p := 100 * (1 - float64(tailSamples)/float64(n))
	if p > want {
		p = want
	}
	// Round down to a tenth of a percent so reports stay readable.
	return math.Floor(p*10) / 10
}

// tail returns the tailPercentile of xs and its value.
func tail(xs []float64, want float64) (p, v float64) {
	p = tailPercentile(len(xs), want)
	return p, quantile(xs, p)
}

// median returns the 50th percentile of xs.
func median(xs []float64) float64 { return quantile(xs, 50) }
