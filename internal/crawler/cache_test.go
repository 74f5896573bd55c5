package crawler

import (
	"context"
	"encoding/json"
	"testing"

	"cookieguard/internal/artifact"
	"cookieguard/internal/webgen"
)

// TestSharedCacheRace16Workers is the concurrency-safety acceptance test
// for the artifact cache: one cache (also installed as the fabric's
// response cache) shared by 16 crawl workers, run twice so the second
// crawl executes almost entirely on cache hits. It is meaningful chiefly
// under the race detector, which CI runs on this package.
func TestSharedCacheRace16Workers(t *testing.T) {
	w := webgen.Build(webgen.DefaultConfig(80))
	in := w.BuildInternet()
	cache := artifact.New()
	in.SetResponseCache(cache)
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}
	opts := Options{
		Internet:  in,
		Workers:   16,
		Interact:  true,
		Artifacts: cache,
	}
	for pass := 0; pass < 2; pass++ {
		res, err := crawlAll(context.Background(), SiteURLs(domains), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 80 {
			t.Fatalf("pass %d: logs = %d", pass, len(res))
		}
	}
	s := cache.Stats()
	if s.ProgramHits == 0 || s.DOMHits == 0 || s.BodyHits == 0 {
		t.Fatalf("shared cache saw no reuse across 16 workers: %+v", s)
	}
}

// TestCacheDisabledEquivalence: a crawl through an artifact cache and
// an uncached crawl (nil Artifacts) produce byte-identical logs for the
// same web and seed.
func TestCacheDisabledEquivalence(t *testing.T) {
	w := webgen.Build(webgen.DefaultConfig(30))
	in := w.BuildInternet()
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}

	crawl := func(cache *artifact.Cache) map[string]string {
		res, err := crawlAll(context.Background(), SiteURLs(domains), Options{
			Internet:  in,
			Workers:   6,
			Interact:  true,
			Seed:      11,
			Artifacts: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(res))
		for _, v := range res {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out[v.Site] = string(b)
		}
		return out
	}

	cached, plain := crawl(artifact.New()), crawl(nil)
	if len(cached) != len(plain) {
		t.Fatalf("site counts diverge: %d vs %d", len(cached), len(plain))
	}
	for site, rec := range plain {
		if cached[site] != rec {
			t.Errorf("site %s: cached crawl record differs from uncached", site)
		}
	}
}
