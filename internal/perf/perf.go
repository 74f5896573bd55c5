// Package perf reproduces the paper's runtime-performance evaluation
// (§7.3): paired page-load measurements with and without CookieGuard,
// yielding Table 4 (means/medians of DOM Content Loaded, DOM Interactive,
// and Load Event), the paired distributions of Figures 6/9, and the
// per-site overhead ratios of Figures 7/10.
package perf

import (
	"fmt"

	"cookieguard/internal/artifact"
	"cookieguard/internal/browser"
	"cookieguard/internal/guard"
	"cookieguard/internal/netsim"
	"cookieguard/internal/stats"
	"cookieguard/internal/webgen"
)

// Metric names the three page-load milestones.
type Metric string

// Page-load metrics.
const (
	DOMContentLoaded Metric = "dom_content_loaded"
	DOMInteractive   Metric = "dom_interactive"
	LoadEvent        Metric = "load_event_time"
)

// Metrics lists the milestones in presentation order.
var Metrics = []Metric{DOMContentLoaded, DOMInteractive, LoadEvent}

// Sample is one paired site measurement in milliseconds.
type Sample struct {
	Site    string
	Without browser.Timing
	With    browser.Timing
}

// Valid applies the paper's cleaning rule: both measurements must be
// positive for every metric.
func (s Sample) Valid() bool {
	return s.Without.DOMContentLoaded > 0 && s.With.DOMContentLoaded > 0 &&
		s.Without.DOMInteractive > 0 && s.With.DOMInteractive > 0 &&
		s.Without.LoadEvent > 0 && s.With.LoadEvent > 0
}

// Results holds the paired measurement set.
type Results struct {
	Samples []Sample
}

// Run measures every given site once per condition. Each visit uses a
// fresh browser (fresh jar and clock), mirroring the paper's separate
// crawls with and without the extension; all visits share the given
// artifact cache (nil disables caching), so the paired measurement
// parses each page and script once. The cache does not perturb the
// measurement — virtual-clock charges are identical with and without it.
func Run(in *netsim.Internet, w *webgen.Web, sites []*webgen.Site, cache *artifact.Cache) (*Results, error) {
	res := &Results{}
	for _, s := range sites {
		without, err := measureOnce(in, s, false, w, cache)
		if err != nil {
			continue // failed visits are dropped, as in the paper
		}
		with, err := measureOnce(in, s, true, w, cache)
		if err != nil {
			continue
		}
		res.Samples = append(res.Samples, Sample{Site: s.Domain, Without: without, With: with})
	}
	if len(res.Samples) == 0 {
		return nil, fmt.Errorf("perf: no valid paired measurements")
	}
	return res, nil
}

func measureOnce(in *netsim.Internet, s *webgen.Site, withGuard bool, w *webgen.Web, cache *artifact.Cache) (browser.Timing, error) {
	opts := browser.Options{Internet: in, Seed: uint64(s.Rank), Artifacts: cache}
	if withGuard {
		opts.CookieMiddleware = []browser.CookieMiddleware{guard.New(guard.DefaultPolicy()).Middleware()}
	}
	b, err := browser.New(opts)
	if err != nil {
		return browser.Timing{}, err
	}
	p, err := b.Visit(s.URL)
	if err != nil {
		return browser.Timing{}, err
	}
	return p.Timing, nil
}

// Valid returns the cleaned sample set.
func (r *Results) Valid() []Sample {
	var out []Sample
	for _, s := range r.Samples {
		if s.Valid() {
			out = append(out, s)
		}
	}
	return out
}

// series extracts one metric column.
func series(samples []Sample, m Metric, with bool) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		t := s.Without
		if with {
			t = s.With
		}
		switch m {
		case DOMContentLoaded:
			out[i] = t.DOMContentLoaded
		case DOMInteractive:
			out[i] = t.DOMInteractive
		case LoadEvent:
			out[i] = t.LoadEvent
		}
	}
	return out
}

// Table4Row is one row of Table 4.
type Table4Row struct {
	Metric        Metric
	NormalMean    float64
	NormalMedian  float64
	GuardedMean   float64
	GuardedMedian float64
}

// Table4 computes the mean/median summary.
func (r *Results) Table4() []Table4Row {
	samples := r.Valid()
	rows := make([]Table4Row, 0, len(Metrics))
	for _, m := range Metrics {
		without := series(samples, m, false)
		with := series(samples, m, true)
		rows = append(rows, Table4Row{
			Metric:        m,
			NormalMean:    stats.Mean(without),
			NormalMedian:  stats.Median(without),
			GuardedMean:   stats.Mean(with),
			GuardedMedian: stats.Median(with),
		})
	}
	return rows
}

// MeanOverheadMS is the average LoadEvent slowdown (the paper's "average
// overhead of 0.3 seconds").
func (r *Results) MeanOverheadMS() float64 {
	samples := r.Valid()
	le := series(samples, LoadEvent, true)
	base := series(samples, LoadEvent, false)
	return stats.Mean(le) - stats.Mean(base)
}

// Fig6 returns the paired boxplots for a metric (Figures 6 and 9).
func (r *Results) Fig6(m Metric) (without, with stats.Boxplot) {
	samples := r.Valid()
	return stats.NewBoxplot(series(samples, m, false)),
		stats.NewBoxplot(series(samples, m, true))
}

// Fig7 returns the per-site overhead ratio distribution for a metric
// (Figures 7 and 10); the paper reports medians of 1.108 / 1.111 / 1.122.
func (r *Results) Fig7(m Metric) (ratios []float64, box stats.Boxplot, median float64) {
	samples := r.Valid()
	ratios = stats.Ratios(series(samples, m, true), series(samples, m, false))
	return ratios, stats.NewBoxplot(ratios), stats.Median(ratios)
}
