package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. It returns NaN for
// an empty sample so a missing measurement cannot read as a number.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, NaN when b is 0, so an unmeasured denominator surfaces
// as a failed finiteness check instead of +Inf or a fake 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// deciles renders a sample's shape for a reader: min, the nine deciles,
// max.
func deciles(xs []float64) string {
	var b strings.Builder
	for d := 0; d <= 10; d++ {
		fmt.Fprintf(&b, "%.3f ", quantile(xs, float64(d)/10))
	}
	return "min/deciles/max: " + strings.TrimSpace(b.String())
}

// quartile is the k-th quartile (1 or 3) as Python's
// statistics.quantiles(xs, n=4) computes it — the method the benchmark's
// driver uses for its spreads, so -compare and the driver agree.
func quartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return quantile(s, 0.5)
	}
	j := k * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(k*(n+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}
