// Package stats provides the descriptive statistics and seeded random
// distributions used across the reproduction: means/medians for Table 4,
// five-number boxplot summaries for Figures 6/9, ratio distributions for
// Figures 7/10, and Zipf/Poisson/Bernoulli generators for the synthetic
// web (internal/webgen) and the timing model (internal/perf).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default).
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Boxplot is the five-number summary plus outliers that Figures 6, 9, and
// 10 of the paper draw: median line, IQR box, 1.5×IQR whiskers, and points
// beyond the whiskers as outliers.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64 // Min/Max are whisker ends, not extremes
	LowOutliers              int
	HighOutliers             int
	N                        int
}

// NewBoxplot computes the boxplot summary of xs.
func NewBoxplot(xs []float64) Boxplot {
	n := len(xs)
	if n == 0 {
		return Boxplot{}
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	b := Boxplot{
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		N:      n,
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.Min, b.Max = b.Q3, b.Q1 // will be overwritten below
	first, last := -1, -1
	for i, v := range s {
		if v < loFence {
			b.LowOutliers++
			continue
		}
		if v > hiFence {
			b.HighOutliers++
			continue
		}
		if first == -1 {
			first = i
		}
		last = i
	}
	if first == -1 { // everything was an outlier (degenerate)
		b.Min, b.Max = s[0], s[n-1]
	} else {
		b.Min, b.Max = s[first], s[last]
	}
	return b
}

// Ratios returns element-wise with[i]/without[i] for paired samples,
// skipping non-positive denominators (the paper's "discard invalid or
// non-positive measurements" cleaning step).
func Ratios(with, without []float64) []float64 {
	n := len(with)
	if len(without) < n {
		n = len(without)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if without[i] > 0 && with[i] > 0 {
			out = append(out, with[i]/without[i])
		}
	}
	return out
}

// Percent renders part/whole as a percentage, guarding division by zero.
func Percent(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
