package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if got := Mean(xs); !almost(got, 22, 1e-9) {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(xs); !almost(got, 3, 1e-9) {
		t.Errorf("Median = %v", got)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.75, 32.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestBoxplot(t *testing.T) {
	// 1..11 plus one extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1000}
	b := NewBoxplot(xs)
	if b.N != 12 {
		t.Errorf("N = %d", b.N)
	}
	if b.HighOutliers != 1 {
		t.Errorf("HighOutliers = %d, want 1", b.HighOutliers)
	}
	if b.Max != 11 {
		t.Errorf("whisker Max = %v, want 11", b.Max)
	}
	if b.Min != 1 {
		t.Errorf("whisker Min = %v, want 1", b.Min)
	}
	if b.Median <= b.Q1 || b.Median >= b.Q3 {
		t.Errorf("ordering violated: %+v", b)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	b := NewBoxplot(nil)
	if b.N != 0 {
		t.Errorf("empty boxplot: %+v", b)
	}
}

// Property: quartiles are ordered, whiskers are ordered, and outlier
// counts never exceed N. (Note: with tiny samples the whisker ends can sit
// inside the box — every point below Q1 may be an outlier — so we do not
// assert Min ≤ Q1.)
func TestBoxplotInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		b := NewBoxplot(xs)
		return b.Q1 <= b.Median && b.Median <= b.Q3 &&
			b.Min <= b.Max &&
			b.LowOutliers+b.HighOutliers <= b.N &&
			b.LowOutliers >= 0 && b.HighOutliers >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRatios(t *testing.T) {
	with := []float64{110, 220, 50, 90}
	without := []float64{100, 200, 0, -1}
	got := Ratios(with, without)
	if len(got) != 2 || !almost(got[0], 1.1, 1e-9) || !almost(got[1], 1.1, 1e-9) {
		t.Errorf("Ratios = %v", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(557, 1000); !almost(got, 55.7, 1e-9) {
		t.Errorf("Percent = %v", got)
	}
	if Percent(1, 0) != 0 {
		t.Error("Percent should guard zero denominator")
	}
}
