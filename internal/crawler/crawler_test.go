package crawler

import (
	"context"
	"testing"

	"cookieguard/internal/analysis"
	"cookieguard/internal/artifact"
	"cookieguard/internal/filterlist"
	"cookieguard/internal/instrument"
	"cookieguard/internal/webgen"
)

// buildAndCrawl is the full measurement pipeline over a generated web.
func buildAndCrawl(t *testing.T, n int, interact bool) (*webgen.Web, []instrument.VisitLog) {
	t.Helper()
	w := webgen.Build(webgen.DefaultConfig(n))
	in := w.BuildInternet()
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}
	res, err := crawlAll(context.Background(), SiteURLs(domains), Options{
		Internet:  in,
		Workers:   8,
		Interact:  interact,
		Artifacts: artifact.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, res
}

// filterComplete returns the logs that pass the retention criterion, in
// input order.
func filterComplete(logs []instrument.VisitLog) []instrument.VisitLog {
	var out []instrument.VisitLog
	for _, l := range logs {
		if l.Complete() {
			out = append(out, l)
		}
	}
	return out
}

func TestCrawlRetainsCompleteSites(t *testing.T) {
	w, res := buildAndCrawl(t, 120, false)
	complete := filterComplete(res)
	expected := len(w.CompleteSites())
	// Complete sites with third-party scripts always produce cookie and
	// request logs; a handful of TP-free sites may fall below the
	// completeness bar, as in the real crawl.
	if len(complete) < expected*8/10 || len(complete) > expected {
		t.Fatalf("retained %d logs, expected close to %d", len(complete), expected)
	}
	if len(res) != 120 {
		t.Fatalf("logs = %d", len(res))
	}
}

func TestCrawlProgressReported(t *testing.T) {
	w := webgen.Build(webgen.DefaultConfig(10))
	in := w.BuildInternet()
	var calls int
	_, err := crawlAll(context.Background(), SiteURLs([]string{
		w.Sites[0].Domain, w.Sites[1].Domain,
	}), Options{Internet: in, ProgressStats: func(ps ProgressStats) {
		calls++
		if ps.Total != 2 || ps.Done != calls {
			t.Errorf("progress = %d/%d at call %d", ps.Done, ps.Total, calls)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("progress calls = %d", calls)
	}
}

// TestPipelineShape is the calibration test: crawl a mid-sized generated
// web and verify the analysis lands near the paper's headline numbers.
// Tolerances are wide — the requirement is shape, not digits.
func TestPipelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline shape test is slow")
	}
	w, res := buildAndCrawl(t, 400, true)
	logs := filterComplete(res)

	clf := filterlist.DefaultClassifier()
	an := analysis.New()
	an.Entities = w.Entities
	an.IsTracker = func(scriptURL, siteDomain string) bool {
		ok, _ := clf.IsTracker(filterlist.Request{URL: scriptURL, SiteDomain: siteDomain, Type: filterlist.TypeScript})
		return ok
	}
	r := an.Run(logs)

	approx := func(name string, got, want, tol float64) {
		t.Helper()
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %.1f, want %.1f ± %.1f", name, got, want, tol)
		}
	}

	// §5.1: third-party prevalence.
	pctTP := 100 * float64(r.Summary.SitesWithThirdParty) / float64(r.Summary.SitesComplete)
	approx("sites with TP scripts %", pctTP, 93.3, 6)
	approx("mean TP scripts/site", r.Summary.MeanTPScriptsPerSite, 19, 8)

	// §5.2: API usage.
	pctDoc := 100 * float64(r.Summary.SitesUsingDocCookie) / float64(r.Summary.SitesComplete)
	approx("document.cookie sites %", pctDoc, 96.3, 8)
	pctCS := 100 * float64(r.Summary.SitesUsingCookieStore) / float64(r.Summary.SitesComplete)
	approx("cookieStore sites %", pctCS, 2.8, 3)

	// Table 1: cross-domain action prevalence (document.cookie).
	approx("exfiltration sites %", r.SitePct(analysis.ActExfiltration), 55.7, 12)
	approx("overwriting sites %", r.SitePct(analysis.ActOverwriting), 31.5, 10)
	approx("deleting sites %", r.SitePct(analysis.ActDeleting), 6.3, 5)

	// Ordering (who wins) must hold regardless of exact figures.
	if !(r.SitePct(analysis.ActExfiltration) > r.SitePct(analysis.ActOverwriting) &&
		r.SitePct(analysis.ActOverwriting) > r.SitePct(analysis.ActDeleting)) {
		t.Error("action ordering violated: want exfil > overwrite > delete")
	}

	// Table 2 top exfiltrated cookies should be dominated by the known
	// tracker cookies.
	top := r.Table2(20)
	if len(top) < 5 {
		t.Fatalf("only %d exfiltrated pairs", len(top))
	}
	names := map[string]bool{}
	for _, row := range top {
		names[row.Cookie.Name] = true
	}
	if !names["_ga"] && !names["_fbp"] && !names["_gcl_au"] {
		t.Errorf("top exfiltrated cookies missing the usual suspects: %v", names)
	}

	// Figure 2: googletagmanager should rank among top exfiltrators.
	fig2 := r.Fig2TopExfiltrators(20)
	if len(fig2) == 0 {
		t.Fatal("no exfiltrator domains")
	}
	foundGTM := false
	for _, d := range fig2[:min(5, len(fig2))] {
		if d.Domain == "googletagmanager.com" {
			foundGTM = true
		}
	}
	if !foundGTM {
		t.Errorf("googletagmanager.com not in top-5 exfiltrators: %+v", fig2[:min(5, len(fig2))])
	}

	// §5.5: overwrite attribute mix — value changes dominate.
	attrs := r.OverwriteAttrs()
	if attrs.Events > 0 && attrs.PctValue < attrs.PctPath {
		t.Errorf("attribute mix inverted: %+v", attrs)
	}

	// §5.6: indirection outnumbers direct inclusion.
	if r.Summary.IndirectScripts <= r.Summary.DirectScripts {
		t.Errorf("indirect (%d) should exceed direct (%d)",
			r.Summary.IndirectScripts, r.Summary.DirectScripts)
	}

	// §8 pilot: cross-domain DOM modification near 9.4%.
	pctDOM := 100 * float64(r.Summary.SitesWithCrossDomainDOM) / float64(r.Summary.SitesComplete)
	approx("cross-domain DOM sites %", pctDOM, 9.4, 6)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
