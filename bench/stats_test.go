package main

import (
	"math"
	"testing"
	"time"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is how the spreads the
// benchmark is accepted by are computed.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{0.9, 1.1, 1.0, 1.2, 0.8, 1.05, 0.95, 1.3, 0.7, 1.0}, 0.875, 1.0, 1.125},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(m, tc.m) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
		if got := median(tc.xs); !near(got, tc.m) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.m)
		}
	}
	if _, m, _ := quartiles(nil); !math.IsNaN(m) {
		t.Errorf("quartiles(nil) median = %v, want NaN", m)
	}
}

// TestTailPercentile checks that the reported tail is the highest
// percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("percentile(1..100, 90) = %v, want 90", got)
	}
	inf := append(xs[:95:95], math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1))
	if got := percentile(inf, 95); got != 95 {
		t.Errorf("p95 with 5 failures = %v, want 95", got)
	}
	if got := percentile(inf, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 5 failures = %v, want +Inf", got)
	}
}

// TestOpenLoopDueTime checks the open-loop accounting: requests are due
// on a fixed schedule, and a request sent late because the sender
// stalled is charged the stall, not just its own service time.
func TestOpenLoopDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ol := openLoop{start: t0, every: 25 * time.Millisecond}
	if got := ol.due(4); !got.Equal(t0.Add(100 * time.Millisecond)) {
		t.Fatalf("due(4) = %v, want start+100ms", got.Sub(t0))
	}
	// Requests 2..9 were held up by a 200 ms stall: all were sent at
	// start+225ms and each took 1 ms to answer.
	done := t0.Add(226 * time.Millisecond)
	for k, want := range map[int]time.Duration{
		2: 176 * time.Millisecond,
		5: 101 * time.Millisecond,
		9: 1 * time.Millisecond,
	} {
		if got := ol.latency(k, done); got != want {
			t.Errorf("latency(%d) = %v, want %v", k, got, want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
