package cookieguard

// Tests for Pipeline.Derive: another crawl of one web shares the web,
// fabric and artifact cache, owns its scheduler counters, result store,
// server and journal, refuses options that name another web, and crawls
// concurrently with its parent.

import (
	"context"
	"sync"
	"testing"
)

func TestDeriveSharesWeb(t *testing.T) {
	ctx := context.Background()
	p := New(WithSites(20), WithWorkers(2), WithSeed(7), WithInteract(true),
		WithServer("127.0.0.1:0"), WithCheckpoint(t.TempDir()))
	defer p.Shutdown(ctx)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.CheckpointStats(); !ok || p.servedOn == "" {
		t.Fatal("the parent neither serves nor journals; the test is vacuous")
	}

	d, err := p.Derive(WithWorkers(2), WithInteract(true), WithGuard(DefaultGuardPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	// Sharing the parent's Web is what shows no second webgen.Build ran.
	if d.Web != p.Web || d.Net != p.Net || d.artifacts == nil || d.artifacts != p.artifacts {
		t.Fatal("the derived pipeline does not share the parent's web, fabric and artifact cache")
	}
	if d.sched == p.sched || d.ResultStore() == p.ResultStore() {
		t.Fatal("the derived pipeline shares the parent's scheduler counters or result store")
	}

	requests, hits := p.Net.Requests(), p.CacheStats().ProgramHits
	if _, err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Net.Requests() <= requests || p.CacheStats().ProgramHits <= hits {
		t.Error("the derived crawl's fetches and compilations do not show on the shared fabric and cache")
	}
	if d.servedOn != "" || d.srv != nil {
		t.Errorf("the derived pipeline serves on %q; it must not inherit WithServer", d.servedOn)
	}
	if _, ok := d.CheckpointStats(); ok {
		t.Error("the derived pipeline journals; it must not inherit WithCheckpoint")
	}
}

func TestDeriveRefusesAnotherWeb(t *testing.T) {
	plain := New(WithSites(10), WithSeed(7))
	cmp := New(WithSites(10), WithSeed(7), WithCMP(true))
	uncached := New(WithSites(10), WithSeed(7), WithArtifactCache(false))
	unsized := New(WithSeed(7))
	unseeded := New(WithSites(10))
	for _, tc := range []struct {
		name   string
		p      *Pipeline
		opts   []Option
		refuse bool
	}{
		{"a different site count", plain, []Option{WithSites(11)}, true},
		{"a different seed", plain, []Option{WithSeed(8)}, true},
		{"CMP off on a CMP web", cmp, []Option{WithCMP(false)}, true},
		{"CMP on a non-CMP web", plain, []Option{WithCMP(true)}, true},
		{"personas on a non-CMP web", plain, []Option{WithPersonas("accept")}, true},
		{"the artifact cache turned off", plain, []Option{WithArtifactCache(false)}, true},
		{"the artifact cache turned on", uncached, []Option{WithArtifactCache(true)}, true},
		{"no options", plain, nil, false},
		{"no options on a CMP web", cmp, nil, false},
		{"the parent's own options", plain, []Option{WithSites(10), WithSeed(7), WithArtifactCache(true)}, false},
		{"personas on a CMP web", cmp, []Option{WithPersonas("accept", "reject")}, false},
		{"the cache kept off", uncached, []Option{WithArtifactCache(false)}, false},
		{"the parent's default site count", unsized, []Option{WithSites(0), WithSeed(7)}, false},
		{"the parent's default seed spelled out", unseeded, []Option{WithSeed(unseeded.Web.Config.Seed)}, false},
	} {
		_, err := tc.p.Derive(tc.opts...)
		if tc.refuse && err == nil {
			t.Errorf("%s: Derive accepted options that name another web", tc.name)
		}
		if !tc.refuse && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestDerivedCrawlConcurrent runs a study and a guarded crawl derived
// from it at the same time, over one fabric and artifact cache: each
// crawl's Results must equal its solo run's.
func TestDerivedCrawlConcurrent(t *testing.T) {
	ctx := context.Background()
	guardOpts := append(cleanGoldenOpts(), WithGuard(DefaultGuardPolicy()))
	soloPlain, err := New(cleanGoldenOpts()...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	soloGuarded, err := New(guardOpts...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stableJSON(t, soloPlain) == stableJSON(t, soloGuarded) {
		t.Fatal("the guard changes nothing on this web; the test is vacuous")
	}

	study := New(cleanGoldenOpts()...)
	guarded, err := study.Derive(guardOpts...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var plainRes, guardedRes *Results
	var plainErr, guardedErr error
	wg.Add(2)
	go func() { defer wg.Done(); plainRes, plainErr = study.Run(ctx) }()
	go func() { defer wg.Done(); guardedRes, guardedErr = guarded.Run(ctx) }()
	wg.Wait()
	if plainErr != nil || guardedErr != nil {
		t.Fatal(plainErr, guardedErr)
	}
	if stableJSON(t, plainRes) != stableJSON(t, soloPlain) {
		t.Error("the study's Results differ from its solo run's when a derived crawl runs beside it")
	}
	if stableJSON(t, guardedRes) != stableJSON(t, soloGuarded) {
		t.Error("the derived guarded crawl's Results differ from its solo run's")
	}
}
