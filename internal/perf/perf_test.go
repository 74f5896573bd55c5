package perf

import (
	"testing"

	"cookieguard/internal/artifact"
	"cookieguard/internal/webgen"
)

func runPerf(t *testing.T, n int) *Results {
	t.Helper()
	w := webgen.Build(webgen.DefaultConfig(n))
	in := w.BuildInternet()
	res, err := Run(in, w, w.CompleteSites(), artifact.New())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPairedMeasurementsValid(t *testing.T) {
	res := runPerf(t, 60)
	valid := res.Valid()
	if len(valid) < 30 {
		t.Fatalf("only %d valid pairs", len(valid))
	}
	for _, s := range valid {
		if !(s.Without.DOMInteractive <= s.Without.DOMContentLoaded &&
			s.Without.DOMContentLoaded <= s.Without.LoadEvent) {
			t.Fatalf("milestone ordering violated: %+v", s.Without)
		}
	}
}

func TestTable4GuardIsSlower(t *testing.T) {
	res := runPerf(t, 80)
	rows := res.Table4()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GuardedMean <= r.NormalMean {
			t.Errorf("%s: guarded mean %.0f ≤ normal mean %.0f",
				r.Metric, r.GuardedMean, r.NormalMean)
		}
		if r.GuardedMedian <= 0 || r.NormalMedian <= 0 {
			t.Errorf("%s: non-positive medians", r.Metric)
		}
	}
	if res.MeanOverheadMS() <= 0 {
		t.Errorf("mean overhead = %.1f ms, want positive", res.MeanOverheadMS())
	}
}

func TestFig6BoxplotsShifted(t *testing.T) {
	res := runPerf(t, 80)
	for _, m := range Metrics {
		without, with := res.Fig6(m)
		if with.Median <= without.Median {
			t.Errorf("%s: guarded median %.0f ≤ normal median %.0f",
				m, with.Median, without.Median)
		}
	}
}

func TestFig7RatiosAboveParity(t *testing.T) {
	res := runPerf(t, 80)
	for _, m := range Metrics {
		ratios, box, median := res.Fig7(m)
		if len(ratios) == 0 {
			t.Fatalf("%s: no ratios", m)
		}
		if median <= 1.0 {
			t.Errorf("%s: median ratio %.3f ≤ 1.0 (paper: ≈1.11)", m, median)
		}
		if median > 1.6 {
			t.Errorf("%s: median ratio %.3f implausibly high", m, median)
		}
		if box.N != len(ratios) {
			t.Errorf("%s: boxplot N mismatch", m)
		}
	}
}

func TestHeavyTail(t *testing.T) {
	res := runPerf(t, 120)
	le := series(res.Valid(), LoadEvent, false)
	// Page loads are right-skewed: mean > median (paper §7.3).
	var mean, sum float64
	for _, v := range le {
		sum += v
	}
	mean = sum / float64(len(le))
	med := median(le)
	if mean <= med {
		t.Errorf("LoadEvent not right-skewed: mean=%.0f median=%.0f", mean, med)
	}
}

func median(xs []float64) float64 {
	cp := append([]float64{}, xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
