package webgen

import (
	"strings"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/jsdsl"
)

// cmpConfig is DefaultConfig with consent-manager generation on.
func cmpConfig(n int) Config {
	cfg := DefaultConfig(n)
	cfg.CMP = true
	return cfg
}

func TestConsentOffGeneratesNoCMPArtifacts(t *testing.T) {
	w := Build(DefaultConfig(120))
	r := newRenderer(w)
	for _, s := range w.Sites {
		if len(s.Consent) > 0 || s.ContainerGated {
			t.Fatalf("site %s carries CMP state with Config.CMP off", s.Domain)
		}
		html := r.landingHTML(s)
		if strings.Contains(html, "cmp-banner") || strings.Contains(html, "/assets/cmp.js") {
			t.Fatalf("site %s landing page carries CMP artifacts with Config.CMP off", s.Domain)
		}
	}
}

func TestConsentOffSitePlansUnperturbed(t *testing.T) {
	// CMP generation only moves already-planned trackers into the
	// manifest; it must not disturb any other draw, so the CMP web's
	// flags and domains match the CMP-free web site for site.
	plain := Build(DefaultConfig(120))
	cmp := Build(cmpConfig(120))
	for i := range plain.Sites {
		if plain.Sites[i].Domain != cmp.Sites[i].Domain {
			t.Fatalf("site %d domain differs under CMP generation", i)
		}
		if plain.Sites[i].Flags != cmp.Sites[i].Flags {
			t.Fatalf("site %d flags differ under CMP generation", i)
		}
	}
}

func TestConsentManifestGatesTrackers(t *testing.T) {
	w := Build(cmpConfig(200))
	r := newRenderer(w)
	var manifests int
	for _, s := range w.Sites {
		for _, svc := range s.DirectServices {
			if consentGated(svc) {
				t.Fatalf("site %s still directly includes gated tracker %s", s.Domain, svc.Name)
			}
		}
		for _, tr := range s.Consent {
			switch tr.Category {
			case "analytics", "advertising", "functional":
			default:
				t.Fatalf("site %s manifest entry %s has category %q", s.Domain, tr.Name, tr.Category)
			}
			if tr.ScriptURL == "" {
				t.Fatalf("site %s manifest entry %s has no script URL", s.Domain, tr.Name)
			}
		}
		if len(s.Consent) > 0 {
			manifests++
			if _, err := jsdsl.Parse(cmpLoaderScript(s)); err != nil {
				t.Fatalf("site %s consent loader does not parse: %v", s.Domain, err)
			}
			html := r.landingHTML(s)
			if !strings.Contains(html, "cmp-banner") || !strings.Contains(html, "/assets/cmp.js") {
				t.Fatalf("site %s landing page missing banner or loader", s.Domain)
			}
		}
	}
	if manifests == 0 {
		t.Fatal("no site grew a consent manifest")
	}
}

func TestConsentBannerAcceptInjectsGatedTrackers(t *testing.T) {
	w := Build(cmpConfig(120))
	in := w.BuildInternet()
	var site *Site
	for _, s := range w.CompleteSites() {
		if len(s.Consent) > 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Skip("no complete CMP site in sample")
	}

	visit := func(click string) *browser.Page {
		b, err := browser.New(browser.Options{Internet: in, Seed: uint64(site.Rank)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Visit(site.URL)
		if err != nil {
			t.Fatal(err)
		}
		if click != "" {
			p.ClickID(click)
		}
		return p
	}
	gated := func(p *browser.Page) int {
		n := 0
		for _, se := range p.Scripts {
			for _, tr := range site.Consent {
				if se.URL == tr.ScriptURL {
					n++
				}
			}
		}
		return n
	}

	if n := gated(visit("")); n != 0 {
		t.Fatalf("%d gated trackers ran before any consent", n)
	}
	if n := gated(visit("cmp-reject")); n != 0 {
		t.Fatalf("%d gated trackers ran after reject-all", n)
	}
	if n := gated(visit("cmp-accept")); n != len(site.Consent) {
		t.Fatalf("accept-all ran %d of %d gated trackers", n, len(site.Consent))
	}
}
