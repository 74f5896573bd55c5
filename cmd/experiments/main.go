// Command experiments regenerates every table and figure of the paper's
// evaluation (§4–§7) and prints paper-vs-measured comparisons.
//
// Usage:
//
//	experiments [-sites N] [-workers N] [-seed S] [-perf N] [-breakage N]
//	            [-artifact-cache=BOOL] [-pooling=BOOL] [-crawl-only]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	            [-faults RATE] [-retries N] [-second-pass] [-breaker]
//	            [-autopilot] [-vantages eu-west,us-east]
//	            [-personas accept,reject,dismiss] [-cmp]
//	            [-serve :8089] [-checkpoint DIR]
//
// The measurement crawl (§4) runs first, folded into the analysis as it
// streams; its results feed the headline statistics, Tables 1, 2 and 5
// and Figures 2 and 8. A guarded re-crawl then gives Figure 5, and the
// breakage and performance evaluations give Tables 3 and 4 and Figures
// 6, 7, 9 and 10. -crawl-only stops after the measurement crawl and the
// prints that follow it.
//
// Fault injection: -faults RATE subjects the fabric to a seeded
// deterministic fault schedule (5xx, connection resets, timeouts,
// truncated bodies, tail-latency spikes, and per-host flap windows,
// spread from the one overall rate — see netsim.UniformFaults), and
// -retries N gives every fetch a bounded retry budget with jittered
// backoff on the virtual clock. The crawl's failure taxonomy is printed
// after the measurement crawl. -faults 0 (the default) reproduces the
// fault-free run byte for byte.
//
// Scheduling and vantage points: -second-pass re-crawls the transient
// failure set once the primary frontier drains, -breaker enables
// per-host circuit breaking (sheds recorded as "circuit-open"),
// -autopilot switches the breaker to self-tuned per-host thresholds
// learned from observed inter-failure intervals, and -vantages crawls
// every site once per named region over the same frozen web and
// artifact cache — every region a lane of one worker pool — printing
// the per-vantage retention and load-event latency-tail table (the
// Figure 6 comparison across regions).
//
// Consent personas: -personas crawls every (site, vantage) pair once
// per named consent persona (accept/reject/dismiss clicks on the
// generated consent banners, implying -cmp) and prints the per-persona
// consent-delta table — retention plus the third-party cookies and
// exfiltration each consent state admitted. -cmp alone generates the
// consent-manager web without acting on the banners.
//
// Live serving and checkpointing: -serve exposes the measurement
// crawl's analysis over HTTP while it runs (cookieguard.Server —
// versioned snapshots with blocking queries; see the Server doc).
// -checkpoint journals the measurement crawl's terminal units
// write-ahead in DIR and prints the journal's volume; a rerun with the
// same flags resumes and produces identical results. SIGINT/SIGTERM
// cancels the crawl context: in-flight visits drain and buffered
// journal appends flush before the process exits 130.
//
// Caches and profiling: the pipeline keeps a content-addressed cache of
// compiled SiteScript programs, DOM templates, and network responses
// for its lifetime (-artifact-cache=false turns it off). Each tier holds
// a bounded working set of recently used content, so its memory does
// not grow with the number of sites; evicted content is parsed again
// when it comes back. The pipeline also recycles per-visit state
// through object pools (-pooling=false turns them off). Neither
// changes results: the same seed emits byte-identical records
// either way. The cache's hit, miss and eviction counts printed beside
// the throughput do depend on worker scheduling, like the throughput
// itself: two runs of the same flags can print slightly different
// counts while every table and record is identical. The same line gives
// the wall time cookieguard.New took to build the synthetic web ("web
// built in X s"), the run's setup cost. -cpuprofile writes
// a CPU profile of the whole run (with -crawl-only, of web generation
// and the measurement crawl), and -memprofile a heap profile taken
// right after the measurement crawl.
// The repository benchmark that performance changes are judged by is
// bench/ (see bench/README.md), not this command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"cookieguard"
	"cookieguard/internal/analysis"
	"cookieguard/internal/breakage"
	"cookieguard/internal/perf"
	"cookieguard/internal/report"
)

func main() {
	sites := flag.Int("sites", 2000, "number of sites to generate and crawl (paper: 20000)")
	workers := flag.Int("workers", 16, "crawl workers")
	seed := flag.Uint64("seed", 0, "override the default deterministic seed (reproducible full-scale runs)")
	perfN := flag.Int("perf", 800, "sites for the performance experiment (paper: 10000)")
	breakN := flag.Int("breakage", 100, "sites for the breakage assessment (paper: 100)")
	artifactCache := flag.Bool("artifact-cache", true,
		"reuse compiled scripts/DOM templates/responses across visits (identical output, higher throughput; each tier holds a bounded working set of recently used content)")
	faults := flag.Float64("faults", 0,
		"overall per-attempt fault rate injected by the fabric (0 disables; 0.1 = 10% of attempts fault, spread across 5xx/reset/timeout/truncation/tail-latency plus flapping hosts)")
	retries := flag.Int("retries", 1,
		"attempt budget per fetch under faults (1 = no retries); retried with jittered backoff on the virtual clock")
	secondPass := flag.Bool("second-pass", false,
		"re-crawl visits that failed on transient classes once the primary frontier drains (only the re-crawl's record is kept)")
	breaker := flag.Bool("breaker", false,
		"per-host circuit breaking: shed fetches/visits to hosts that keep failing ('circuit-open') instead of burning the retry budget")
	autopilot := flag.Bool("autopilot", false,
		"self-tuning breaker thresholds: learn each host's failure threshold and cooldown from its observed inter-failure intervals (implies -breaker)")
	vantages := flag.String("vantages", "",
		"comma-separated vantage-point names; crawls every site once per region and prints the per-vantage latency-tail table")
	personas := flag.String("personas", "",
		"comma-separated consent personas (e.g. accept,reject,dismiss); crawls every (site, vantage) pair once per persona, clicking the matching consent-banner action (implies -cmp) and printing the per-persona consent-delta table")
	cmp := flag.Bool("cmp", false,
		"generate the web with consent-management platforms (banner + gated trackers) without acting on the banners; implied by -personas")
	pooling := flag.Bool("pooling", true,
		"recycle per-visit state (pages, DOM arenas, interpreters, cached exchanges) through object pools; -pooling=false reproduces the unpooled baseline byte for byte")
	serve := flag.String("serve", "",
		"serve live analysis over HTTP at this address (e.g. :8089) while the measurement crawl runs")
	checkpoint := flag.String("checkpoint", "",
		"crash-safe checkpoint directory for the measurement crawl: journal terminal units write-ahead; a rerun with the same flags resumes from the journal")
	crawlOnly := flag.Bool("crawl-only", false,
		"exit after the measurement crawl and its prints (skips the guard/breakage/performance experiments); with -cpuprofile, profiles web generation and the crawl alone")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measurement crawl to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken after the measurement crawl to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	cfg := runConfig{
		sites: *sites, workers: *workers, seed: *seed,
		perfN: *perfN, breakN: *breakN,
		artifactCache: *artifactCache, pooling: *pooling, crawlOnly: *crawlOnly,
		memProfile: *memProfile, serveAddr: *serve, checkpointDir: *checkpoint,
		faultRate: *faults, retries: *retries,
		secondPass: *secondPass, breaker: *breaker, autopilot: *autopilot, cmp: *cmp,
	}
	for _, name := range strings.Split(*personas, ",") {
		if name = strings.TrimSpace(name); name != "" {
			cfg.personas = append(cfg.personas, name)
		}
	}
	if *vantages != "" {
		for _, name := range strings.Split(*vantages, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.vantages = append(cfg.vantages, cookieguard.RegionVantage(name, *faults, *seed))
			}
		}
	}
	if err := run(cfg); err != nil {
		if errors.Is(err, context.Canceled) {
			// Interrupted: the crawl drained its in-flight visits and
			// flushed its journal before the error surfaced.
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runConfig bundles the flag set run consumes.
type runConfig struct {
	sites, workers         int
	seed                   uint64
	perfN, breakN          int
	artifactCache, pooling bool
	crawlOnly              bool
	memProfile             string
	faultRate              float64
	retries                int
	secondPass, breaker    bool
	autopilot              bool
	vantages               []cookieguard.Vantage
	personas               []string
	cmp                    bool
	serveAddr              string
	checkpointDir          string
}

func run(cfg runConfig) error {
	sites, workers, seed := cfg.sites, cfg.workers, cfg.seed
	perfN, breakN := cfg.perfN, cfg.breakN
	artifactCache, pooling, crawlOnly := cfg.artifactCache, cfg.pooling, cfg.crawlOnly
	memProfile := cfg.memProfile
	faultRate, retries := cfg.faultRate, cfg.retries
	out := os.Stdout
	fmt.Fprintf(out, "=== CookieGuard reproduction: %d sites ===\n\n", sites)

	resilience := []cookieguard.Option{}
	if faultRate > 0 {
		resilience = append(resilience, cookieguard.WithFaults(cookieguard.UniformFaults(faultRate, seed)))
	}
	if retries > 1 {
		rp := cookieguard.DefaultRetryPolicy()
		rp.MaxAttempts = retries
		resilience = append(resilience, cookieguard.WithRetryPolicy(rp))
	}
	if cfg.secondPass {
		resilience = append(resilience, cookieguard.WithSecondPass(true))
	}
	if cfg.breaker {
		resilience = append(resilience, cookieguard.WithBreaker(cookieguard.Breaker{Enabled: true}))
	}
	if cfg.autopilot {
		resilience = append(resilience, cookieguard.WithBreakerAutopilot())
	}
	if len(cfg.vantages) > 0 {
		resilience = append(resilience, cookieguard.WithVantages(cfg.vantages...))
	}
	if len(cfg.personas) > 0 {
		resilience = append(resilience, cookieguard.WithPersonas(cfg.personas...))
	}
	if cfg.cmp {
		resilience = append(resilience, cookieguard.WithCMP(true))
	}
	// newPipeline builds a pipeline over this run's crawl configuration
	// plus extra options: the study adds the server and journal, the
	// guarded re-crawl the guard.
	newPipeline := func(extra ...cookieguard.Option) *cookieguard.Pipeline {
		opts := append([]cookieguard.Option{
			cookieguard.WithSites(sites),
			cookieguard.WithWorkers(workers),
			cookieguard.WithSeed(seed),
			cookieguard.WithInteract(true),
			cookieguard.WithArtifactCache(artifactCache),
			cookieguard.WithPooling(pooling),
		}, resilience...)
		return cookieguard.New(append(opts, extra...)...)
	}
	var studyOpts []cookieguard.Option
	if cfg.serveAddr != "" {
		studyOpts = append(studyOpts, cookieguard.WithServer(cfg.serveAddr))
	}
	if cfg.checkpointDir != "" {
		studyOpts = append(studyOpts, cookieguard.WithCheckpoint(cfg.checkpointDir))
	}
	buildStart := time.Now()
	study := newPipeline(studyOpts...)
	buildSecs := time.Since(buildStart).Seconds()
	// SIGINT/SIGTERM cancels the crawl; in-flight visits drain, a journal
	// (if -checkpoint) flushes its final state, and main exits 130. A
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.serveAddr != "" {
		bound, err := study.StartServer(cfg.serveAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "serving live analysis on http://%s/v1/\n\n", bound)
	}

	// ---------- Measurement crawl (no guard), single streaming pass ----------
	fmt.Fprintln(out, "--- measurement crawl (§4) ---")
	crawlStart := time.Now()
	res, err := study.Run(ctx)
	if err != nil {
		return err
	}
	crawlSecs := time.Since(crawlStart).Seconds()
	s := res.Summary
	fmt.Fprintf(out, "crawled %d sites, %d complete (paper: 20000 -> 14917)\n",
		s.SitesTotal, s.SitesComplete)
	// Every crawl unit (site × vantage × persona) yields one log, and the
	// analysis counts every log in SitesTotal.
	units := float64(s.SitesTotal)
	cs := study.CacheStats()
	fmt.Fprintf(out, "throughput %.1f units/s; web built in %.2f s; artifact cache per unit: %.2f / %.2f program, %.2f / %.2f dom, %.2f / %.2f body hits / misses; %.1f MB resident, %d evictions\n\n",
		units/crawlSecs, buildSecs,
		float64(cs.ProgramHits)/units, float64(cs.ProgramMisses)/units,
		float64(cs.DOMHits)/units, float64(cs.DOMMisses)/units,
		float64(cs.BodyHits)/units, float64(cs.BodyMisses)/units,
		float64(cs.ProgramResidentBytes+cs.DOMResidentBytes+cs.BodyResidentBytes)/1e6,
		cs.ProgramEvictions+cs.DOMEvictions+cs.BodyEvictions)

	if faultRate > 0 {
		fmt.Fprintf(out, "--- failure taxonomy (fault rate %.1f%%, %d attempts/fetch) ---\n", 100*faultRate, retries)
		report.Failures(out, res.Failures, res.FailureTable())
		fmt.Fprintln(out)
	}
	if cfg.breaker || cfg.secondPass {
		sc := study.SchedStats()
		fmt.Fprintf(out, "scheduler: %d visits (%.0f virtual s), %d visit sheds, %d fetch sheds, %d circuits opened, %d probes, %d requeued, %d second-pass kept\n\n",
			sc.Visits, float64(sc.VirtualMs)/1000, sc.ShedVisits, sc.ShedFetches,
			sc.Opened, sc.Probes, sc.Requeued, sc.SecondPassKept)
	}
	if len(cfg.vantages) > 0 {
		fmt.Fprintln(out, "--- per-vantage comparison (Figure 6 across regions) ---")
		report.Vantages(out, res.VantageTable())
		fmt.Fprintln(out)
	}
	if len(cfg.personas) > 0 {
		fmt.Fprintln(out, "--- per-persona consent deltas (accept vs reject vs dismiss) ---")
		report.Personas(out, res.PersonaTable())
		fmt.Fprintln(out)
	}

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // flush accounting so the profile reflects the crawl
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "allocation profile written to %s\n\n", memProfile)
	}

	if cfg.checkpointDir != "" {
		if st, ok := study.CheckpointStats(); ok {
			fmt.Fprintf(out, "checkpoint journal: %d records + %d snapshots, %d bytes, %d fsyncs (%d units replayed from a prior run)\n\n",
				st.Records, st.Snapshots, st.BytesWritten, st.Fsyncs, st.Replayed)
		}
	}
	if crawlOnly {
		return nil
	}

	// ---------- §5.1 / §5.2 / §5.6 / §8 headline stats ----------
	fmt.Fprintln(out, "--- headline statistics (paper vs measured) ---")
	pct := func(n int) float64 { return 100 * float64(n) / float64(max(1, s.SitesComplete)) }
	report.Compare(out, "sites with >=1 third-party script (%)", 93.3, pct(s.SitesWithThirdParty), "%")
	report.Compare(out, "mean distinct third-party scripts per site", 19, s.MeanTPScriptsPerSite, "scripts")
	report.Compare(out, "third-party scripts that are ad/tracking (%)", 70, 100*s.TrackerScriptShare, "%")
	report.Compare(out, "third-party cookies set per site", 15, s.MeanTPCookiesPerSite, "cookies")
	report.Compare(out, "first-party cookies set per site", 4, s.MeanFPCookiesPerSite, "cookies")
	report.Compare(out, "sites invoking document.cookie (%)", 96.3, pct(s.SitesUsingDocCookie), "%")
	report.Compare(out, "sites using cookieStore API (%)", 2.8, pct(s.SitesUsingCookieStore), "%")
	report.Compare(out, "indirect:direct inclusion ratio", 2.5,
		ratio(s.IndirectScripts, s.DirectScripts), "x")
	report.Compare(out, "cross-domain DOM modification sites (%)", 9.4, pct(s.SitesWithCrossDomainDOM), "%")
	fmt.Fprintln(out)

	// ---------- Table 1 ----------
	report.Table1(out, res.Table1())
	fmt.Fprintln(out, "\npaper Table 1: document.cookie exfil 55.7% sites / 5.9% cookies;")
	fmt.Fprintln(out, "overwrite 31.5% / 2.7%; delete 6.3% / 1.8%; cookieStore exfil 0.7% / 16.3%;")
	fmt.Fprintln(out, "cookieStore overwrite/delete 0 / 0")
	fmt.Fprintln(out)

	// ---------- Table 2 ----------
	report.Table2(out, res.Table2(20))
	fmt.Fprintln(out)

	// ---------- Figure 2 ----------
	report.Bar(out, "Figure 2: top 20 exfiltrator script domains (unique cookies)", res.Fig2TopExfiltrators(20))
	fmt.Fprintln(out, "paper: googletagmanager.com leads at 3.29% of all cookie pairs")
	fmt.Fprintln(out)

	// ---------- Table 5 / Figure 8 ----------
	report.Table5(out, res.Table5(10))
	fmt.Fprintln(out)
	report.Bar(out, "Figure 8a: top overwriting domains", res.Fig8TopOverwriters(20))
	fmt.Fprintln(out)
	report.Bar(out, "Figure 8b: top deleting domains", res.Fig8TopDeleters(20))
	fmt.Fprintln(out)

	// ---------- §5.5 attribute changes ----------
	attrs := res.OverwriteAttrs()
	fmt.Fprintln(out, "--- overwrite attribute changes (paper vs measured) ---")
	report.Compare(out, "overwrites changing value (%)", 85.3, attrs.PctValue, "%")
	report.Compare(out, "overwrites changing expires (%)", 69.4, attrs.PctExpires, "%")
	report.Compare(out, "overwrites changing domain (%)", 6.0, attrs.PctDomain, "%")
	report.Compare(out, "overwrites changing path (%)", 1.2, attrs.PctPath, "%")
	fmt.Fprintln(out)

	// ---------- Figure 5: guard efficacy ----------
	fmt.Fprintln(out, "--- Figure 5: cross-domain actions with vs without CookieGuard ---")
	guarded := newPipeline(append(studyOpts, cookieguard.WithGuard(cookieguard.DefaultGuardPolicy()))...)
	gres, err := guarded.Run(ctx)
	if err != nil {
		return err
	}
	fig5(out, res, gres)
	fmt.Fprintln(out)

	// ---------- Table 3: breakage ----------
	fmt.Fprintln(out, "--- Table 3: website breakage ---")
	for _, cond := range []breakage.Condition{breakage.NoGuard, breakage.GuardStrict, breakage.GuardWhitelist} {
		t3, err := study.EvaluateBreakage(breakN, cond)
		if err != nil {
			return err
		}
		report.Table3(out, t3)
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "paper: strict guard SSO major 11%, functionality 3%+3%;")
	fmt.Fprintln(out, "entity whitelist reduces overall breakage to 3%")
	fmt.Fprintln(out)

	// ---------- Table 4 + Figures 6/7/9/10: performance ----------
	fmt.Fprintln(out, "--- Table 4 / Figures 6, 7, 9, 10: performance ---")
	pres, err := study.EvaluatePerformance(perfN)
	if err != nil {
		return err
	}
	report.Table4(out, pres.Table4())
	fmt.Fprintf(out, "mean LoadEvent overhead: %.0f ms (paper: ~300 ms)\n\n", pres.MeanOverheadMS())
	for _, m := range perf.Metrics {
		without, with := pres.Fig6(m)
		fmt.Fprintf(out, "Figure 6/9 (%s):\n", m)
		report.Boxplot(out, "no extension", without)
		report.Boxplot(out, "with cookieguard", with)
		_, box, median := pres.Fig7(m)
		fmt.Fprintf(out, "Figure 7/10 (%s): median overhead ratio %.3f (paper: ~1.11)\n", m, median)
		report.Boxplot(out, "ratio distribution", box)
	}

	return nil
}

// fig5 prints the with/without comparison and reduction percentages.
func fig5(out *os.File, plain, guarded *analysis.Results) {
	actions := []analysis.ActionKind{analysis.ActOverwriting, analysis.ActDeleting, analysis.ActExfiltration}
	paperReduction := map[analysis.ActionKind]float64{
		analysis.ActOverwriting:  82.2,
		analysis.ActDeleting:     86.2,
		analysis.ActExfiltration: 83.2,
	}
	for _, act := range actions {
		before := plain.SitePct(act)
		after := guarded.SitePct(act)
		reduction := 0.0
		if before > 0 {
			reduction = 100 * (before - after) / before
		}
		fmt.Fprintf(out, "  %-14s regular %5.1f%% -> guarded %5.1f%%  reduction %5.1f%% (paper: %.1f%%)\n",
			act, before, after, reduction, paperReduction[act])
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
