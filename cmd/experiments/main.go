// Command experiments regenerates every table and figure of the paper's
// evaluation (§4–§7) and ends with one paper-vs-measured table: every
// value the paper reports (paperRows) beside the run's measurement.
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
// streams; its results feed the §5 measurement report that cmd/analyze
// prints too (report.Measurement): the failure table, the per-vantage
// and per-persona tables when there is more than one of either, Tables
// 1, 2 and 5 and Figures 2 and 8. A guarded re-crawl of the study's web
// (Pipeline.Derive) then gives Figure 5, and the breakage and
// performance evaluations give Tables 3 and 4 and Figures 6, 7, 9 and
// 10. -crawl-only stops after the measurement crawl and its report.
//
// The crawl flags (-sites, -workers, -seed, -faults, -retries,
// -second-pass, -breaker, -autopilot, -vantages, -personas, -cmp and
// -pooling) are cmd/crawl's, registered by package crawlflags; only
// -sites' default differs. -faults 0 (the default) reproduces the
// fault-free run byte for byte, and -breaker or -second-pass adds the
// scheduler's counters after the throughput line. -faults applies to the
// measurement and guarded crawls only: the breakage and performance
// evaluations fetch the fault-free web, so Tables 3 and 4 and Figures
// 6, 7, 9 and 10 read the same with or without it.
//
// -serve exposes the measurement crawl's analysis over HTTP while it
// runs (cookieguard.Server). -checkpoint journals its terminal units in
// DIR, and a rerun with the same flags resumes with identical results.
// SIGINT/SIGTERM cancels the crawl: in-flight visits drain and buffered
// journal appends flush before the process exits 130.
//
// Caches and profiling: -artifact-cache=false and -pooling=false turn
// off the pipeline's content-addressed artifact cache and its per-visit
// object pools; neither changes results. The cache's hit, miss and
// eviction counts printed beside the throughput depend on worker
// scheduling, like the throughput itself, while every table and record
// is identical. The same line gives the wall time cookieguard.New took
// to build the synthetic web ("web built in X s"), the run's setup
// cost and its only build: every crawl and evaluation uses that web.
// -cpuprofile profiles the whole run (with -crawl-only, web
// generation, the measurement crawl and its report), and -memprofile
// takes a heap profile right after the measurement crawl. The
// repository benchmark that performance changes are judged by is bench/
// (see bench/README.md), not this command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"cookieguard"
	"cookieguard/internal/analysis"
	"cookieguard/internal/breakage"
	"cookieguard/internal/crawlflags"
	"cookieguard/internal/perf"
	"cookieguard/internal/report"
)

func main() {
	cfg := registerFlags(flag.CommandLine)
	flag.Parse()

	// SIGINT/SIGTERM cancels the crawl; in-flight visits drain, a journal
	// (if -checkpoint) flushes its final state, and main exits 130. A
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, cfg); err != nil {
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

// runConfig is the flag set run consumes.
type runConfig struct {
	crawl                    *crawlflags.Flags
	perfN, breakN            int
	artifactCache, crawlOnly bool
	cpuProfile, memProfile   string
	serveAddr, checkpointDir string
}

// registerFlags defines the command's flags on fs; the returned config
// holds their values once fs is parsed.
func registerFlags(fs *flag.FlagSet) *runConfig {
	cfg := &runConfig{crawl: crawlflags.Register(fs, 2000,
		fmt.Sprintf("number of sites to generate and crawl (the paper crawled %d)", paperSites))}
	fs.IntVar(&cfg.perfN, "perf", 800, fmt.Sprintf("sites for the performance experiment (the paper timed %d)", paperPerfSites))
	fs.IntVar(&cfg.breakN, "breakage", 100, fmt.Sprintf("sites for the breakage assessment (the paper assessed %d)", paperBreakageSites))
	fs.BoolVar(&cfg.artifactCache, "artifact-cache", true,
		"reuse compiled scripts/DOM templates/responses across visits (identical output, higher throughput; each tier holds a bounded working set of recently used content)")
	fs.StringVar(&cfg.serveAddr, "serve", "",
		"serve live analysis over HTTP at this address (e.g. :8089) while the measurement crawl runs")
	fs.StringVar(&cfg.checkpointDir, "checkpoint", "",
		"crash-safe checkpoint directory for the measurement crawl: journal terminal units write-ahead; a rerun with the same flags resumes from the journal")
	fs.BoolVar(&cfg.crawlOnly, "crawl-only", false,
		"exit after the measurement crawl and its report (skips the guard/breakage/performance experiments); with -cpuprofile, profiles web generation and the crawl alone")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the measurement crawl to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write an allocation profile taken after the measurement crawl to this file")
	return cfg
}

func run(ctx context.Context, out io.Writer, cfg *runConfig) error {
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	buildStart := time.Now()
	study := cookieguard.New(append(cfg.crawl.Options(), cookieguard.WithArtifactCache(cfg.artifactCache),
		cookieguard.WithServer(cfg.serveAddr), cookieguard.WithCheckpoint(cfg.checkpointDir))...)
	buildSecs := time.Since(buildStart).Seconds()
	fmt.Fprintf(out, "=== CookieGuard reproduction: %d sites ===\n\n", len(study.Web.Sites))

	if cfg.serveAddr != "" {
		bound, err := study.StartServer(cfg.serveAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "serving live analysis on http://%s/v1/\n\n", bound)
	}

	fmt.Fprintln(out, "--- measurement crawl (§4) ---")
	crawlStart := time.Now()
	res, err := study.Run(ctx)
	if err != nil {
		return err
	}
	crawlSecs := time.Since(crawlStart).Seconds()
	s := res.Summary
	fmt.Fprintf(out, "crawled %d sites, %d complete\n", s.SitesTotal, s.SitesComplete)
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

	if cfg.crawl.Breaker || cfg.crawl.SecondPass {
		sc := study.SchedStats()
		fmt.Fprintf(out, "scheduler: %d visits (%.0f virtual s), %d visit sheds, %d fetch sheds, %d circuits opened, %d probes, %d requeued, %d second-pass kept\n\n",
			sc.Visits, float64(sc.VirtualMs)/1000, sc.ShedVisits, sc.ShedFetches,
			sc.Opened, sc.Probes, sc.Requeued, sc.SecondPassKept)
	}
	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
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
		fmt.Fprintf(out, "allocation profile written to %s\n\n", cfg.memProfile)
	}

	if cfg.checkpointDir != "" {
		if st, ok := study.CheckpointStats(); ok {
			fmt.Fprintf(out, "checkpoint journal: %d records + %d snapshots, %d bytes, %d fsyncs (%d units replayed from a prior run)\n\n",
				st.Records, st.Snapshots, st.BytesWritten, st.Fsyncs, st.Replayed)
		}
	}
	report.Measurement(out, res)
	if cfg.crawlOnly {
		return nil
	}

	fmt.Fprintln(out, "--- Figure 5: cross-domain actions with vs without CookieGuard ---")
	guarded, err := study.Derive(append(cfg.crawl.Options(), cookieguard.WithGuard(cookieguard.DefaultGuardPolicy()))...)
	if err != nil {
		return err
	}
	gres, err := guarded.Run(ctx)
	if err != nil {
		return err
	}
	fig5(out, res, gres)
	fmt.Fprintln(out)

	fmt.Fprintln(out, "--- Table 3: website breakage ---")
	table3 := map[breakage.Condition]breakage.Table3{}
	for _, cond := range []breakage.Condition{breakage.NoGuard, breakage.GuardStrict, breakage.GuardWhitelist} {
		t3, err := study.EvaluateBreakage(cfg.breakN, cond)
		if err != nil {
			return err
		}
		report.Table3(out, t3)
		fmt.Fprintln(out)
		table3[cond] = t3
	}

	fmt.Fprintln(out, "--- Table 4 / Figures 6, 7, 9, 10: performance ---")
	pres, err := study.EvaluatePerformance(cfg.perfN)
	if err != nil {
		return err
	}
	report.Table4(out, pres.Table4())
	fmt.Fprintf(out, "mean LoadEvent overhead: %.0f ms\n\n", pres.MeanOverheadMS())
	for _, m := range perf.Metrics {
		without, with := pres.Fig6(m)
		fmt.Fprintf(out, "Figure 6/9 (%s):\n", m)
		report.Boxplot(out, "no extension", without)
		report.Boxplot(out, "with cookieguard", with)
		_, box, median := pres.Fig7(m)
		fmt.Fprintf(out, "Figure 7/10 (%s): median overhead ratio %.3f\n", m, median)
		report.Boxplot(out, "ratio distribution", box)
	}
	fmt.Fprintln(out)

	report.PaperTable(out, compare(&measured{res: res, guarded: gres, table3: table3, perf: pres}))
	return nil
}

// fig5 prints the share of sites with each cross-domain action with and
// without the guard, and the guard's reduction of it.
func fig5(out io.Writer, plain, guarded *analysis.Results) {
	for _, act := range []analysis.ActionKind{analysis.ActOverwriting, analysis.ActDeleting, analysis.ActExfiltration} {
		before, after := plain.SitePct(act), guarded.SitePct(act)
		fmt.Fprintf(out, "  %-14s regular %5.1f%% -> guarded %5.1f%%  reduction %5.1f%%\n",
			act, before, after, reduction(before, after))
	}
}
