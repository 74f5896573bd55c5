package cookieguard

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artifact end-to-end
// (generate → crawl → analyze / evaluate) at a benchmark-friendly scale;
// cmd/experiments runs the same code paths at full scale and prints the
// paper-vs-measured rows. The repository benchmark that performance
// changes are judged by is described in bench/README.md.

import (
	"testing"

	"cookieguard/internal/analysis"
	"cookieguard/internal/artifact"
	"cookieguard/internal/breakage"
	"cookieguard/internal/browser"
	"cookieguard/internal/instrument"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/netsim"
	"cookieguard/internal/perf"
	"cookieguard/internal/webgen"
)

const benchSites = 150

// measured caches one crawl per benchmark binary run; the per-iteration
// work is the artifact regeneration itself.
func crawlOnce(b *testing.B, guarded bool) (*Pipeline, []instrument.VisitLog) {
	b.Helper()
	opts := []Option{WithSites(benchSites), WithWorkers(8), WithInteract(true)}
	if guarded {
		opts = append(opts, WithGuard(DefaultGuardPolicy()))
	}
	p := New(opts...)
	logs, err := collectStream(p)
	if err != nil {
		b.Fatal(err)
	}
	return p, logs
}

// BenchmarkAnalyzerObserve isolates the incremental analysis fold — the
// per-log cost Run pays while streaming — so the identifier-encoding
// memo's win (md5/sha1/base64 of repeated identifiers computed once per
// run instead of once per observation) is attributable.
func BenchmarkAnalyzerObserve(b *testing.B) {
	study, logs := crawlOnce(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := study.NewAnalyzer()
		for _, v := range logs {
			an.Observe(v)
		}
		an.Finalize()
	}
}

func BenchmarkSummaryStats(b *testing.B) {
	study, logs := crawlOnce(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := study.NewAnalyzer().Run(logs)
		if res.Summary.SitesComplete == 0 {
			b.Fatal("no complete sites")
		}
	}
}

func BenchmarkTable1Prevalence(b *testing.B) {
	study, logs := crawlOnce(b, false)
	res := study.NewAnalyzer().Run(logs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := res.Table1()
		if len(rows) != 6 {
			b.Fatal("table 1 rows")
		}
	}
}

func BenchmarkTable2TopExfiltrated(b *testing.B) {
	study, logs := crawlOnce(b, false)
	res := study.NewAnalyzer().Run(logs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := res.Table2(20); len(rows) == 0 {
			b.Fatal("no exfiltrated pairs")
		}
	}
}

func BenchmarkFig2TopExfiltrators(b *testing.B) {
	study, logs := crawlOnce(b, false)
	res := study.NewAnalyzer().Run(logs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := res.Fig2TopExfiltrators(20); len(top) == 0 {
			b.Fatal("no exfiltrators")
		}
	}
}

func BenchmarkTable5Manipulated(b *testing.B) {
	study, logs := crawlOnce(b, false)
	res := study.NewAnalyzer().Run(logs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := res.Table5(10); len(rows) == 0 {
			b.Fatal("no manipulated pairs")
		}
	}
}

func BenchmarkFig8TopManipulators(b *testing.B) {
	study, logs := crawlOnce(b, false)
	res := study.NewAnalyzer().Run(logs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Fig8TopOverwriters(20)
		_ = res.Fig8TopDeleters(20)
	}
}

func BenchmarkOverwriteAttrs(b *testing.B) {
	study, logs := crawlOnce(b, false)
	res := study.NewAnalyzer().Run(logs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := res.OverwriteAttrs(); s.Events == 0 {
			b.Fatal("no overwrite events")
		}
	}
}

func BenchmarkInclusionPaths(b *testing.B) {
	study, logs := crawlOnce(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := study.NewAnalyzer().Run(logs)
		if res.Summary.IndirectScripts <= res.Summary.DirectScripts {
			b.Fatal("indirection ratio collapsed")
		}
	}
}

func BenchmarkFig5GuardEfficacy(b *testing.B) {
	study, logs := crawlOnce(b, false)
	base := study.NewAnalyzer().Run(logs)
	before := base.SitePct(analysis.ActExfiltration)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gStudy, gLogs := crawlOnce(b, true)
		b.StartTimer()
		gres := gStudy.NewAnalyzer().Run(gLogs)
		after := gres.SitePct(analysis.ActExfiltration)
		if after >= before {
			b.Fatalf("guard did not reduce exfiltration: %.1f -> %.1f", before, after)
		}
	}
}

func BenchmarkTable3Breakage(b *testing.B) {
	study, _ := crawlOnce(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3, err := study.EvaluateBreakage(50, breakage.GuardStrict)
		if err != nil {
			b.Fatal(err)
		}
		if t3.Sites == 0 {
			b.Fatal("no sites assessed")
		}
	}
}

func BenchmarkTable4Performance(b *testing.B) {
	study := New(WithSites(60))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := study.EvaluatePerformance(40)
		if err != nil {
			b.Fatal(err)
		}
		if rows := res.Table4(); len(rows) != 3 {
			b.Fatal("table 4 rows")
		}
	}
}

func BenchmarkFig6Boxplots(b *testing.B) {
	study := New(WithSites(60))
	res, err := study.EvaluatePerformance(40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range perf.Metrics {
			_, with := res.Fig6(m)
			if with.N == 0 {
				b.Fatal("empty boxplot")
			}
		}
	}
}

func BenchmarkFig7OverheadRatio(b *testing.B) {
	study := New(WithSites(60))
	res, err := study.EvaluatePerformance(40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range perf.Metrics {
			_, _, median := res.Fig7(m)
			if median <= 1.0 {
				b.Fatalf("median ratio %.3f ≤ 1", median)
			}
		}
	}
}

func BenchmarkDOMPilot(b *testing.B) {
	study, logs := crawlOnce(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := study.NewAnalyzer().Run(logs)
		if res.Summary.SitesWithCrossDomainDOM == 0 {
			b.Fatal("no cross-domain DOM modification observed")
		}
	}
}

// Ablations: the design choices DESIGN.md calls out.

func BenchmarkAblationInlineRelaxed(b *testing.B) {
	pol := DefaultGuardPolicy()
	pol.Inline = 1 // relaxed
	study := New(WithSites(benchSites), WithWorkers(8), WithGuard(pol))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logs, err := collectStream(study)
		if err != nil {
			b.Fatal(err)
		}
		_ = study.NewAnalyzer().Run(logs)
	}
}

func BenchmarkAblationNoOwnerAccess(b *testing.B) {
	pol := DefaultGuardPolicy()
	pol.OwnerFullAccess = false
	study := New(WithSites(benchSites), WithWorkers(8), WithGuard(pol))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logs, err := collectStream(study)
		if err != nil {
			b.Fatal(err)
		}
		res := study.NewAnalyzer().Run(logs)
		// Without owner access, even the residual site-owner actions
		// disappear.
		if res.SitePct(analysis.ActExfiltration) > 5 {
			b.Fatal("owner ablation should eliminate nearly all exfiltration")
		}
	}
}

func BenchmarkAblationWhitelistBreakage(b *testing.B) {
	study, _ := crawlOnce(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strict, err := study.EvaluateBreakage(60, breakage.GuardStrict)
		if err != nil {
			b.Fatal(err)
		}
		wl, err := study.EvaluateBreakage(60, breakage.GuardWhitelist)
		if err != nil {
			b.Fatal(err)
		}
		if wl.Pct[breakage.SSO][breakage.Major] > strict.Pct[breakage.SSO][breakage.Major] {
			b.Fatal("whitelist increased breakage")
		}
	}
}

func BenchmarkEndToEndCrawl(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study := New(WithSites(50), WithWorkers(8), WithInteract(true))
		logs, err := collectStream(study)
		if err != nil {
			b.Fatal(err)
		}
		if res := study.NewAnalyzer().Run(logs); res.Summary.SitesComplete == 0 {
			b.Fatal("no complete sites")
		}
	}
}

// --- Focused allocation micro-benchmarks (PR 4) -------------------------
//
// The three benchmarks below isolate the layers the zero-alloc work
// targets, so a regression in any one of them is attributable: the whole
// instrumented visit (BenchmarkVisitAlloc), the per-page DOM template
// clone (BenchmarkDOMClone), and script execution on a pooled
// interpreter (BenchmarkInterpRun). Run with -benchmem; allocs/op is the
// figure that matters.

func BenchmarkVisitAlloc(b *testing.B) {
	w := webgen.Build(webgen.DefaultConfig(30))
	in := w.BuildInternet()
	cache := artifact.New()
	site := w.CompleteSites()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := instrument.NewRecorder()
		br, err := browser.New(browser.Options{
			Internet:         in,
			CookieMiddleware: []browser.CookieMiddleware{rec.Middleware()},
			Artifacts:        cache,
			Pooling:          true,
			Seed:             7,
		})
		if err != nil {
			b.Fatal(err)
		}
		p, err := br.Visit(site.URL)
		log := rec.BuildVisitLog(site.Domain, []*browser.Page{p}, err)
		br.Release()
		if !log.OK || len(log.Requests) == 0 {
			b.Fatal("visit produced no data")
		}
	}
}

func BenchmarkDOMClone(b *testing.B) {
	w := webgen.Build(webgen.DefaultConfig(30))
	in := w.BuildInternet()
	cache := artifact.New()
	site := w.CompleteSites()[0]
	resp, err := in.Client().Get(site.URL)
	if err != nil {
		b.Fatal(err)
	}
	html, err := netsim.ReadBody(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cache.Document(site.URL, html)
		if d.Root == nil {
			b.Fatal("no clone")
		}
		d.Release()
	}
}

func BenchmarkInterpRun(b *testing.B) {
	// A representative tracker-shaped script: cookie reads and writes,
	// string work, a loop, and a map — no network.
	prog, err := jsdsl.Parse(`
let all = get_all_cookies();
let tags = [];
for (k in all) {
  if (len(all[k]) >= 4) { push(tags, k + ":" + all[k]); }
}
let i = 0;
let acc = "";
while (i < 20) {
  acc = acc + str(i * 3);
  i = i + 1;
}
set_cookie("bench", md5(acc), {"max_age": 3600});
let back = get_cookie("bench");
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := &jsdsl.NopHost{}
		in := jsdsl.AcquireInterp(host)
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
		in.Release()
	}
}

// BenchmarkUnitAlloc times the full (site, vantage, persona) unit axis
// on one warm pipeline: every iteration re-crawls 20 sites × 2 vantages
// × 2 personas through one worker pool, so allocs/op ÷ 80 is the
// per-unit garbage figure (the lane bookkeeping, unit labels, and
// delivery path on top of the visits themselves). Its units/s is warm;
// bench/'s resilient-journal workload measures the same axis cold.
func BenchmarkUnitAlloc(b *testing.B) {
	const sites = 20
	p := New(WithSites(sites), WithWorkers(4), WithInteract(true), WithSeed(7),
		WithVantages(RegionVantage("eu-west", 0, 7), RegionVantage("us-east", 0, 7)),
		WithPersonas("accept", "reject"))
	units := sites * 2 * 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logs, err := collectStream(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(logs) != units {
			b.Fatalf("crawled %d units, want %d", len(logs), units)
		}
	}
	b.ReportMetric(float64(units*b.N)/b.Elapsed().Seconds(), "units/s")
}
