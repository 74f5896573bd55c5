package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, the median and the third
// quartile of xs by the method of Python's statistics.quantiles(xs,
// n=4) (its default "exclusive" method), so the spreads printed here are
// the ones a check written with it computes. One value is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q = append(q, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/n)
	}
	return q[0], median(d), q[2]
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// tailPercentiles are the percentiles a tail is reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, or 0 when even the lowest does not:
// a percentile with fewer samples beyond it is one outlier, not a tail.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	i := int(math.Ceil(p*float64(len(d))/100)) - 1
	return d[max(0, min(i, len(d)-1))]
}

// openLoop is the schedule of an open-loop client: request k is due at
// start + k·every whether or not earlier requests have completed, and
// its latency counts from when it was due, so a stall of the sender or
// of the system is charged to every request it delayed.
type openLoop struct {
	start time.Time
	every time.Duration
}

// due is when request k should be sent.
func (o openLoop) due(k int) time.Time { return o.start.Add(time.Duration(k) * o.every) }

// latency is request k's latency when it completed at done.
func (o openLoop) latency(k int, done time.Time) time.Duration { return done.Sub(o.due(k)) }
