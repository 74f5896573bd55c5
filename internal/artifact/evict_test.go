package artifact_test

import (
	"context"
	"encoding/json"
	"testing"

	"cookieguard/internal/artifact"
	"cookieguard/internal/browser"
	"cookieguard/internal/crawler"
	"cookieguard/internal/netsim"
	"cookieguard/internal/webgen"
)

// TestEvictionInvisibleInRecords crawls a faulted, retried,
// two-persona, interacting web through a cache whose budgets are small
// enough that both tiers rotate many times, and through no cache at
// all: the records must be byte-identical. Truncated and retried
// fetches are on the path, so a page or script whose first delivery
// failed is parsed from its retry.
func TestEvictionInvisibleInRecords(t *testing.T) {
	cfg := webgen.DefaultConfig(60)
	cfg.CMP = true
	w := webgen.Build(cfg)
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}
	sites := crawler.SiteURLs(domains)

	crawl := func(cache *artifact.Cache) map[string]string {
		in := w.BuildInternet()
		in.SetFaultModel(netsim.SeededFaults(netsim.UniformFaults(0.1, 17)))
		logs, errs := crawler.Stream(context.Background(), sites, crawler.Options{
			Internet:  in,
			Workers:   4,
			Interact:  true,
			Seed:      9,
			Retry:     browser.RetryPolicy{MaxAttempts: 3},
			Personas:  []string{"accept", "reject"},
			Artifacts: cache,
		})
		out := map[string]string{}
		for l := range logs {
			b, err := json.Marshal(l)
			if err != nil {
				t.Fatal(err)
			}
			out[l.Site+"\x00"+l.Persona] = string(b)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		return out
	}

	cache := artifact.NewWithBudgets(16<<10, 4<<10)
	bounded, plain := crawl(cache), crawl(nil)
	if len(plain) != 2*len(sites) || len(bounded) != len(plain) {
		t.Fatalf("record counts: bounded %d, uncached %d, want %d", len(bounded), len(plain), 2*len(sites))
	}
	for k, rec := range plain {
		if bounded[k] != rec {
			t.Errorf("unit %q: record through an evicting cache differs from the uncached one", k)
		}
	}
	s := cache.Stats()
	t.Logf("cache stats: %+v", s)
	if s.ProgramEvictions == 0 || s.DOMEvictions == 0 {
		t.Fatalf("a tier never evicted: %+v", s)
	}
	if s.ProgramHits == 0 || s.DOMHits == 0 {
		t.Fatalf("a tier never hit: %+v", s)
	}
}
