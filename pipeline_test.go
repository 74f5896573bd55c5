package cookieguard

// Tests for the streaming pipeline API: option wiring, cached-vs-uncached
// crawl equivalence, streaming-vs-batch analysis equivalence, bounded
// residency, and cancellation.

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// collectStream drains p.Stream and returns every delivered log, in
// completion order, with the stream's error.
func collectStream(p *Pipeline) ([]VisitLog, error) {
	logs, errs := p.Stream(context.Background())
	var out []VisitLog
	for l := range logs {
		out = append(out, l)
	}
	return out, <-errs
}

// eventCount is the number of events in r's site rows.
func eventCount(r *Results) int {
	n := 0
	for _, row := range r.SiteRows() {
		n += len(row.Events)
	}
	return n
}

// TestStreamingAnalysisMatchesBatch is the equivalence contract at the
// public-API level: feeding crawled logs through Observe/Finalize must
// reproduce the batch Analyzer.Run byte for byte.
func TestStreamingAnalysisMatchesBatch(t *testing.T) {
	p := New(WithSites(60), WithWorkers(8), WithInteract(true))
	logs, err := collectStream(p)
	if err != nil {
		t.Fatal(err)
	}

	batch := p.NewAnalyzer().Run(logs)

	an := p.NewAnalyzer()
	for _, v := range logs {
		an.Observe(v)
	}
	streaming := an.Finalize()

	if !reflect.DeepEqual(batch, streaming) {
		t.Fatal("streaming Observe/Finalize diverges from batch Analyzer.Run on identical logs")
	}
	if eventCount(batch) == 0 || batch.Summary.SitesComplete == 0 {
		t.Fatal("crawl produced no events; equivalence check is vacuous")
	}
}

// TestRunSinglePass verifies Run against the batch path on a fresh crawl
// of the same web: per-site aggregates must agree even though the stream
// observes sites in completion order.
func TestRunSinglePass(t *testing.T) {
	p := New(WithSites(60), WithWorkers(8), WithInteract(true))

	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	logs, err := collectStream(p)
	if err != nil {
		t.Fatal(err)
	}
	batch := p.NewAnalyzer().Run(logs)

	if res.Summary.SitesTotal != batch.Summary.SitesTotal ||
		res.Summary.SitesComplete != batch.Summary.SitesComplete {
		t.Fatalf("site counts diverge: run=%+v batch=%+v", res.Summary, batch.Summary)
	}
	if stableJSON(t, res) != stableJSON(t, batch) {
		t.Fatalf("Results diverge: run has %d events, batch %d", eventCount(res), eventCount(batch))
	}
	if res.Summary.SitesWithThirdParty != batch.Summary.SitesWithThirdParty {
		t.Fatalf("third-party counts diverge: run=%d batch=%d",
			res.Summary.SitesWithThirdParty, batch.Summary.SitesWithThirdParty)
	}
}

// TestPipelineBoundedResidency is the acceptance check for the streaming
// memory claim: under a slow consumer, logs produced but not yet consumed
// stay O(workers) — the same bound Run relies on — while collecting the
// stream would materialize all of them.
func TestPipelineBoundedResidency(t *testing.T) {
	const nSites, workers = 60, 3
	var produced atomic.Int64
	p := New(
		WithSites(nSites),
		WithWorkers(workers),
		WithProgressStats(func(ps ProgressStats) {
			if ps.Total != nSites {
				t.Errorf("progress total = %d, want %d", ps.Total, nSites)
			}
			produced.Store(int64(ps.Done))
		}),
	)
	logs, errs := p.Stream(context.Background())
	consumed, peak := 0, 0
	for range logs {
		consumed++
		if resident := int(produced.Load()) - consumed; resident > peak {
			peak = resident
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if consumed != nSites {
		t.Fatalf("consumed %d logs, want %d", consumed, nSites)
	}
	// Bound: workers buffered in the channel + one mid-handoff.
	if limit := workers + 1; peak > limit {
		t.Errorf("peak resident logs = %d, want <= %d (O(workers), workers=%d, sites=%d)",
			peak, limit, workers, nSites)
	}
}

// TestRunContextCancel: a cancelled context aborts Run with its error.
func TestRunContextCancel(t *testing.T) {
	p := New(WithSites(10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Fatal("cancelled Run should report the context error")
	}
}

// TestWithSeedReproducible: the same seed regenerates the same web; a
// different seed does not.
func TestWithSeedReproducible(t *testing.T) {
	a := New(WithSites(20), WithSeed(42))
	b := New(WithSites(20), WithSeed(42))
	c := New(WithSites(20), WithSeed(43))
	if !reflect.DeepEqual(a.SiteList(), b.SiteList()) {
		t.Fatal("same seed produced different site lists")
	}
	if reflect.DeepEqual(a.SiteList(), c.SiteList()) {
		t.Fatal("different seeds produced identical site lists")
	}
}

// TestArtifactCacheEquivalence is the determinism contract of the
// artifact cache: a cached crawl and a cache-disabled crawl of the same
// seeded web must emit byte-identical per-site records. Logs are
// serialized to JSON and compared per site (the stream delivers in
// completion order, so ordering is normalized by the site key).
func TestArtifactCacheEquivalence(t *testing.T) {
	serialize := func(logs []VisitLog) map[string]string {
		out := make(map[string]string, len(logs))
		for _, v := range logs {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out[v.Site] = string(b)
		}
		return out
	}

	cached := New(WithSites(40), WithWorkers(8), WithSeed(7), WithInteract(true))
	plain := New(WithSites(40), WithWorkers(8), WithSeed(7), WithInteract(true), WithArtifactCache(false))

	cLogs, err := collectStream(cached)
	if err != nil {
		t.Fatal(err)
	}
	pLogs, err := collectStream(plain)
	if err != nil {
		t.Fatal(err)
	}

	cRecs, pRecs := serialize(cLogs), serialize(pLogs)
	if len(cRecs) != len(pRecs) {
		t.Fatalf("site counts diverge: cached=%d uncached=%d", len(cRecs), len(pRecs))
	}
	for site, rec := range pRecs {
		if cRecs[site] != rec {
			t.Errorf("site %s: cached record differs from uncached\ncached:   %s\nuncached: %s",
				site, cRecs[site], rec)
		}
	}

	// The check must not be vacuous: the cached run has to have hit.
	stats := cached.CacheStats()
	if stats.ProgramHits == 0 || stats.DOMHits == 0 || stats.BodyHits == 0 {
		t.Fatalf("cached crawl shows no reuse: %+v", stats)
	}
	if s := plain.CacheStats(); s != (CacheStats{}) {
		t.Fatalf("disabled cache recorded lookups: %+v", s)
	}

	// A second crawl over the same pipeline reuses the warm cache and
	// still reproduces the same records (run-many over parse-once).
	again, err := collectStream(cached)
	if err != nil {
		t.Fatal(err)
	}
	for site, rec := range serialize(again) {
		if pRecs[site] != rec {
			t.Errorf("site %s: warm-cache record differs from uncached", site)
		}
	}
}

// TestGuardedRunLeaksNoGoroutine: a guarded Run builds one CookieGuard
// per visit and never closes it, so a guard must own no goroutine.
func TestGuardedRunLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(WithSites(40), WithWorkers(4), WithInteract(true), WithGuard(DefaultGuardPolicy()))
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Give the runtime a moment to retire the crawl's exited workers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d over a guarded 40-site Run", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
