// Command experiments regenerates every table and figure of the paper's
// evaluation and prints paper-vs-measured comparisons.
//
// Usage:
//
//	experiments [-sites N] [-workers N] [-seed S] [-perf N] [-breakage N]
//	            [-artifact-cache=BOOL] [-pooling=BOOL] [-bench-json FILE]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	            [-faults RATE] [-retries N] [-second-pass] [-breaker]
//	            [-autopilot] [-vantages eu-west,us-east]
//	            [-personas accept,reject,dismiss] [-cmp]
//	            [-serve :8089] [-serve-bench]
//	            [-checkpoint DIR] [-checkpoint-compare]
//
// Crash-safe checkpointing: -checkpoint journals the measurement
// crawl's terminal units write-ahead in DIR (a rerun with the same
// flags resumes and produces identical results), and
// -checkpoint-compare times the same configuration with and without
// journaling on fresh pipelines — recording journal bytes, fsync
// batches, and units/s with vs without (plus the overhead percentage)
// under the bench snapshot's `checkpoint` key (BENCH_9.json by
// convention; the journal is the fsync-batched durability floor, so
// the gate expects <5% throughput cost). SIGINT/SIGTERM cancels the
// crawl context: in-flight visits drain and buffered journal appends
// flush before the process exits 130.
//
// Paired timing: -checkpoint-compare times through a lap harness.
// Every lap builds a fresh pipeline (fresh web and caches) over the
// measurement crawl's configuration, plus a journal on the measured
// side, and drains Stream; one discarded warm-up lap comes first,
// then three laps per side alternating which side runs first, keeping
// each side's best, so cold-start costs bill to neither side.
//
// Consent personas: -personas crawls every (site, vantage) pair once
// per named consent persona (accept/reject/dismiss clicks on the
// generated consent banners, implying -cmp) and prints the per-persona
// consent-delta table — retention plus the third-party cookies and
// exfiltration each consent state admitted. -bench-json records the
// persona list and units_per_sec — crawl-plan units (sites × vantages
// × personas) per wall-clock second, the figure comparable across all
// three axis counts (BENCH_8.json by convention for persona runs).
// -cmp alone generates the consent-manager web without acting on the
// banners.
//
// Live serving: -serve exposes the measurement crawl's analysis over
// HTTP while it runs (cookieguard.Server — versioned snapshots with
// blocking queries; see the Server doc). -serve-bench runs the HTTP
// read-path smoke bench after the crawl: it hammers a versioned
// endpoint at a fixed index (the cached-encoding path every dashboard
// poller hits) and records cached-poll requests/s in the -bench-json
// snapshot (BENCH_6.json by convention); it brings up a loopback server
// on its own when -serve isn't given.
//
// Scheduling and vantage points: -second-pass re-crawls the transient
// failure set once the primary frontier drains, -breaker enables
// per-host circuit breaking (sheds recorded as "circuit-open"),
// -autopilot switches the breaker to self-tuned per-host thresholds
// learned from observed inter-failure intervals, and -vantages crawls
// every site once per named region over the same frozen web and
// artifact cache — every region a lane of one worker pool — printing
// the per-vantage retention and load-event latency-tail table (the
// Figure 6 comparison across regions). -bench-json records the
// per-vantage rows and the scheduler's shed/probe counters alongside
// the usual throughput figures (BENCH_5.json by convention for
// multi-vantage faulted runs).
//
// Profiling and the perf harness: -cpuprofile/-memprofile write pprof
// profiles (the memory profile is taken right after the measurement
// crawl), and -bench-json records allocs_per_site, bytes_per_site, GC
// cycle/pause totals, and object-pool reuse counters alongside
// throughput — BENCH_4.json is the checked-in baseline the CI bench
// smoke job gates allocation regressions against. -pooling=false turns
// per-visit object pooling off; pooled and unpooled runs with the same
// seed emit byte-identical per-site records.
//
// Fault injection: -faults RATE subjects the fabric to a seeded
// deterministic fault schedule (5xx, connection resets, timeouts,
// truncated bodies, tail-latency spikes, and per-host flap windows,
// spread from the one overall rate — see netsim.UniformFaults), and
// -retries N gives every fetch a bounded retry budget with jittered
// backoff on the virtual clock. The crawl's failure taxonomy is printed
// after the measurement crawl and recorded in the -bench-json snapshot
// (BENCH_3.json by convention for faulted runs), so throughput under
// faults can be compared against the clean BENCH_2.json baseline.
// -faults 0 (the default) reproduces the fault-free run byte for byte.
//
// Artifact-cache tuning: the pipeline keeps a content-addressed cache of
// compiled SiteScript programs, DOM templates, and network responses for
// its lifetime (-artifact-cache=true, the default). The cache trades
// memory proportional to the web's distinct content for crawl
// throughput; it never changes results — the same seed emits
// byte-identical records with the cache on or off. Disable it with
// -artifact-cache=false to bound memory on very large -sites values or
// to measure the uncached baseline; -bench-json records the achieved
// throughput and cache hit rates either way (BENCH_2.json by
// convention), so on/off runs can be compared directly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
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
		"reuse compiled scripts/DOM templates/responses across visits (identical output, higher throughput; costs memory proportional to distinct content)")
	benchJSON := flag.String("bench-json", "",
		"write a crawl-throughput snapshot (sites/sec, cache hit rates) to this file, e.g. BENCH_2.json")
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
	serveBench := flag.Bool("serve-bench", false,
		"run the HTTP read-path smoke bench after the crawl (cached-poll requests/s, recorded in -bench-json); starts a loopback server if -serve is not set")
	checkpoint := flag.String("checkpoint", "",
		"crash-safe checkpoint directory for the measurement crawl: journal terminal units write-ahead; a rerun with the same flags resumes from the journal")
	ckptCompare := flag.Bool("checkpoint-compare", false,
		"time the crawl with vs without checkpointing on fresh pipelines and record journal bytes, fsyncs, and units/s overhead in -bench-json")
	crawlOnly := flag.Bool("crawl-only", false,
		"exit after the measurement crawl and its -bench-json snapshot (skips the guard/breakage/performance experiments); the perf-harness mode CI's bench gate runs")
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
		benchJSON: *benchJSON, memProfile: *memProfile,
		faultRate: *faults, retries: *retries,
		secondPass: *secondPass, breaker: *breaker, autopilot: *autopilot,
		cmp:       *cmp,
		serveAddr: *serve, serveBench: *serveBench,
		checkpointDir: *checkpoint, ckptCompare: *ckptCompare,
	}
	for _, name := range strings.Split(*personas, ",") {
		if name = strings.TrimSpace(name); name != "" {
			cfg.personas = append(cfg.personas, name)
		}
	}
	if cfg.serveBench && cfg.serveAddr == "" {
		cfg.serveAddr = "127.0.0.1:0"
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
	benchJSON, memProfile  string
	faultRate              float64
	retries                int
	secondPass, breaker    bool
	autopilot              bool
	vantages               []cookieguard.Vantage
	personas               []string
	cmp                    bool
	serveAddr              string
	serveBench             bool
	checkpointDir          string
	ckptCompare            bool
}

// benchSnapshot is the schema of the -bench-json throughput record.
type benchSnapshot struct {
	Benchmark     string  `json:"benchmark"`
	Sites         int     `json:"sites"`
	Workers       int     `json:"workers"`
	Seed          uint64  `json:"seed"`
	ArtifactCache bool    `json:"artifact_cache"`
	Pooling       bool    `json:"pooling"`
	FaultRate     float64 `json:"fault_rate,omitempty"`
	RetryAttempts int     `json:"retry_attempts,omitempty"`
	// Personas is the consent-persona list of a -personas run (absent
	// otherwise); every (site, vantage) pair is crawled once per persona.
	Personas []string `json:"personas,omitempty"`
	// CrawlSeconds is the measurement crawl's wall-clock time; SitesPerSec
	// counts each distinct site once (sites / CrawlSeconds) while
	// VisitsPerSec counts performed crawls — sites × vantages — per
	// wall-clock second, the figure that is comparable across vantage
	// counts. For single-vantage runs the two coincide.
	// UnitsPerSec generalizes VisitsPerSec to the full crawl-plan axis:
	// sites × vantages × personas per wall-clock second, the figure that
	// is comparable across persona counts too (equal to VisitsPerSec
	// without -personas).
	CrawlSeconds float64 `json:"crawl_seconds"`
	SitesPerSec  float64 `json:"sites_per_sec"`
	VisitsPerSec float64 `json:"visits_per_sec"`
	UnitsPerSec  float64 `json:"units_per_sec"`
	// AllocsPerSite and BytesPerSite are runtime.MemStats deltas over the
	// measurement crawl divided by the site count; the GC fields are the
	// collector's cycle count and total pause over the same window. They
	// are the regression-gated figures of the perf harness (CI compares
	// AllocsPerSite against the checked-in baseline).
	AllocsPerSite float64                `json:"allocs_per_site"`
	BytesPerSite  float64                `json:"bytes_per_site"`
	GCCycles      uint32                 `json:"gc_cycles"`
	GCPauseMs     float64                `json:"gc_pause_ms"`
	CacheStats    cookieguard.CacheStats `json:"cache_stats"`
	PoolStats     cookieguard.PoolStats  `json:"pool_stats"`
	// Sched is the scheduler-counter snapshot: visit virtual time,
	// circuit-breaker shed/probe activity, and second-pass volume (all
	// zero without -breaker/-second-pass).
	Sched cookieguard.SchedSnapshot `json:"sched"`
	// Vantages carries per-vantage retention and latency-tail rows for
	// multi-vantage runs (absent otherwise). The lanes share one worker
	// pool, so wall-clock time is not attributable per vantage.
	Vantages []vantageBench `json:"vantages,omitempty"`
	// Checkpoint is the -checkpoint/-checkpoint-compare record: journal
	// IO volume and the units/s cost of write-ahead journaling (absent
	// without either flag).
	Checkpoint *checkpointBench `json:"checkpoint,omitempty"`
	// Failures is the crawl failure-taxonomy rollup (all zero without
	// -faults), so a faulted snapshot documents what it survived.
	Failures cookieguard.FailureStats `json:"failures"`
	// ServeBench records the HTTP read-path smoke bench: cached-poll
	// throughput against a versioned endpoint at a fixed index (absent
	// unless -serve-bench).
	ServeBench *serveBenchResult `json:"serve_bench,omitempty"`
}

// serveBenchResult is the -serve-bench record: every request hits the
// per-index cached encoding (no re-marshal), so requests/s measures the
// O(1) read path dashboards poll.
type serveBenchResult struct {
	Endpoint       string  `json:"endpoint"`
	Clients        int     `json:"clients"`
	Requests       int     `json:"requests"`
	Seconds        float64 `json:"seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
}

// vantageBench is one vantage point's row in the bench snapshot.
type vantageBench struct {
	Name string `json:"name"`
	cookieguard.VantageStats
}

// checkpointBench records what write-ahead journaling cost. With
// -checkpoint-compare the with/without figures come from compareLaps
// (best of three alternating laps each); with
// -checkpoint alone only the journal volume and the journaled crawl's
// units/s are known and the overhead fields stay zero.
type checkpointBench struct {
	// JournalBytes / JournalRecords / JournalSnapshots / Fsyncs are the
	// write-ahead journal's IO volume for one full crawl (under
	// -checkpoint-compare, the last journaled lap's).
	JournalBytes     int64 `json:"journal_bytes"`
	JournalRecords   int64 `json:"journal_records"`
	JournalSnapshots int64 `json:"journal_snapshots"`
	Fsyncs           int64 `json:"fsyncs"`
	// UnitsPerSecWith / UnitsPerSecWithout are the paired throughput
	// figures; OverheadPct is (without−with)/without — the CI gate
	// expects < 5.
	UnitsPerSecWith    float64 `json:"units_per_sec_with"`
	UnitsPerSecWithout float64 `json:"units_per_sec_without"`
	OverheadPct        float64 `json:"overhead_pct"`
}

func run(cfg runConfig) error {
	sites, workers, seed := cfg.sites, cfg.workers, cfg.seed
	perfN, breakN := cfg.perfN, cfg.breakN
	artifactCache, pooling, crawlOnly := cfg.artifactCache, cfg.pooling, cfg.crawlOnly
	benchJSON, memProfile := cfg.benchJSON, cfg.memProfile
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
	// plus extra options. The compare laps rerun exactly that
	// configuration — no server or journal — each adding the one option
	// it measures.
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
	// baseline is the unchanged side of every compare.
	baseline := func() (*cookieguard.Pipeline, func(), error) { return newPipeline(), nil, nil }
	var studyOpts []cookieguard.Option
	if cfg.serveAddr != "" {
		studyOpts = append(studyOpts, cookieguard.WithServer(cfg.serveAddr))
	}
	if cfg.checkpointDir != "" {
		studyOpts = append(studyOpts, cookieguard.WithCheckpoint(cfg.checkpointDir))
	}
	study := newPipeline(studyOpts...)
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
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	crawlStart := time.Now()
	res, err := study.Run(ctx)
	if err != nil {
		return err
	}
	crawlSecs := time.Since(crawlStart).Seconds()
	runtime.ReadMemStats(&msAfter)
	s := res.Summary
	fmt.Fprintf(out, "crawled %d sites, %d complete (paper: 20000 -> 14917)\n",
		s.SitesTotal, s.SitesComplete)
	cs := study.CacheStats()
	fmt.Fprintf(out, "throughput %.1f sites/s; artifact cache: %d program hits / %d misses, %d dom hits, %d body hits\n\n",
		float64(s.SitesTotal)/crawlSecs, cs.ProgramHits, cs.ProgramMisses, cs.DOMHits, cs.BodyHits)

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

	// -checkpoint alone: report the measurement crawl's journal volume.
	// -checkpoint-compare: additionally time the same configuration with
	// and without a fresh journal through compareLaps, so the overhead
	// figure isolates journaling cost from warmup noise.
	var ckpt *checkpointBench
	if cfg.checkpointDir != "" {
		if st, ok := study.CheckpointStats(); ok {
			units := sites * len(study.Vantages()) * max(1, len(cfg.personas))
			ckpt = &checkpointBench{
				JournalBytes:     st.BytesWritten,
				JournalRecords:   st.Records,
				JournalSnapshots: st.Snapshots,
				Fsyncs:           st.Fsyncs,
				UnitsPerSecWith:  float64(units) / crawlSecs,
			}
			fmt.Fprintf(out, "checkpoint journal: %d records + %d snapshots, %d bytes, %d fsyncs (%d units replayed from a prior run)\n\n",
				st.Records, st.Snapshots, st.BytesWritten, st.Fsyncs, st.Replayed)
		}
	}
	if cfg.ckptCompare {
		fmt.Fprintln(out, "--- checkpoint overhead (-checkpoint-compare) ---")
		// Each journaled lap gets its own empty temp dir — reusing one
		// would replay the previous lap's units and undercount the write
		// cost.
		var jst cookieguard.JournalStats
		secs, units, err := compareLaps(ctx, baseline, func() (*cookieguard.Pipeline, func(), error) {
			dir, err := os.MkdirTemp("", "cg-ckpt-bench-")
			if err != nil {
				return nil, nil, err
			}
			p := newPipeline(cookieguard.WithCheckpoint(dir))
			return p, func() {
				jst, _ = p.CheckpointStats()
				os.RemoveAll(dir)
			}, nil
		})
		if err != nil {
			return err
		}
		withoutSecs, withSecs := secs[0], secs[1]
		if ckpt == nil {
			ckpt = &checkpointBench{}
		}
		ckpt.JournalBytes = jst.BytesWritten
		ckpt.JournalRecords = jst.Records
		ckpt.JournalSnapshots = jst.Snapshots
		ckpt.Fsyncs = jst.Fsyncs
		ckpt.UnitsPerSecWith = float64(units) / withSecs
		ckpt.UnitsPerSecWithout = float64(units) / withoutSecs
		ckpt.OverheadPct = 100 * (ckpt.UnitsPerSecWithout - ckpt.UnitsPerSecWith) / ckpt.UnitsPerSecWithout
		fmt.Fprintf(out, "journaled %.2fs (%.1f units/s) vs plain %.2fs (%.1f units/s): overhead %.2f%% — %d bytes, %d fsyncs for %d units\n\n",
			withSecs, ckpt.UnitsPerSecWith, withoutSecs, ckpt.UnitsPerSecWithout,
			ckpt.OverheadPct, jst.BytesWritten, jst.Fsyncs, units)
	}

	var sb *serveBenchResult
	if cfg.serveBench {
		bound, err := study.StartServer(cfg.serveAddr)
		if err != nil {
			return err
		}
		if sb, err = runServeBench("http://" + bound); err != nil {
			return err
		}
		fmt.Fprintf(out, "serve bench: %d cached polls from %d clients in %.2fs -> %.0f requests/s (%s)\n\n",
			sb.Requests, sb.Clients, sb.Seconds, sb.RequestsPerSec, sb.Endpoint)
	}

	if benchJSON != "" {
		snap := benchSnapshot{
			Benchmark:     "StreamingPipeline",
			Sites:         sites,
			Workers:       workers,
			Seed:          seed,
			ArtifactCache: artifactCache,
			Pooling:       pooling,
			FaultRate:     faultRate,
			RetryAttempts: retries,
			Personas:      cfg.personas,
			CrawlSeconds:  crawlSecs,
			SitesPerSec:   float64(sites) / crawlSecs,
			VisitsPerSec:  float64(sites*len(study.Vantages())) / crawlSecs,
			UnitsPerSec:   float64(sites*len(study.Vantages())*max(1, len(cfg.personas))) / crawlSecs,
			Checkpoint:    ckpt,
			AllocsPerSite: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(sites),
			BytesPerSite:  float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(sites),
			GCCycles:      msAfter.NumGC - msBefore.NumGC,
			GCPauseMs:     float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6,
			CacheStats:    cs,
			PoolStats:     study.PoolStats(),
			Sched:         study.SchedStats(),
			Failures:      res.Failures,
			ServeBench:    sb,
		}
		for _, row := range res.VantageTable() {
			if row.Vantage == "" && len(cfg.vantages) == 0 {
				continue // single implicit vantage: no per-vantage rows
			}
			snap.Vantages = append(snap.Vantages, vantageBench{Name: row.Vantage, VantageStats: row.VantageStats})
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchJSON, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		fmt.Fprintf(out, "throughput snapshot written to %s\n\n", benchJSON)
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

// compareSide builds one side of a paired timing: a fresh pipeline for
// one lap (its own web and caches), plus an optional hook run once the
// lap has drained — to read the pipeline's counters or remove its files.
type compareSide func() (p *cookieguard.Pipeline, after func(), err error)

// compareLapsPerSide is how many timed laps each side runs. Single-lap
// variance on a busy machine runs several percent, larger than the
// journal's real cost, and best-of-N converges on the floor.
const compareLapsPerSide = 3

// compareLaps times two configurations of one crawl against each other,
// every lap draining Stream on a fresh pipeline, so the ratio isolates
// the option the sides differ in. One discarded warm-up lap of a comes
// first; then each round alternates which side runs first — whichever
// runs first pays the process's cold-start costs (page cache, allocator
// growth, GC pacing), and a fixed order would bill them all to one
// side. It returns each side's best lap in seconds and the units one
// lap streams.
func compareLaps(ctx context.Context, a, b compareSide) ([2]float64, int, error) {
	var best [2]float64
	units := 0
	lap := func(side compareSide) (float64, error) {
		p, after, err := side()
		if err != nil {
			return 0, err
		}
		if after != nil {
			defer after()
		}
		start := time.Now()
		logs, errs := p.Stream(ctx)
		n := 0
		for range logs {
			n++
		}
		if err := <-errs; err != nil {
			return 0, err
		}
		units = n
		return time.Since(start).Seconds(), nil
	}
	if _, err := lap(a); err != nil {
		return best, 0, err
	}
	sides := [2]compareSide{a, b}
	for i := 0; i < compareLapsPerSide; i++ {
		for j := range sides {
			k := (i + j) % 2
			secs, err := lap(sides[k])
			if err != nil {
				return best, 0, err
			}
			if best[k] == 0 || secs < best[k] {
				best[k] = secs
			}
		}
	}
	return best, units, nil
}

// runServeBench measures the cached read path of cookieguard.Server:
// concurrent clients polling one versioned endpoint with a stale index,
// so every request resolves immediately from the per-index cached
// encoding (the request mix a dashboard fleet generates between
// snapshot publishes). Returns aggregate requests/s over real HTTP.
func runServeBench(base string) (*serveBenchResult, error) {
	const (
		clients   = 8
		perClient = 1000
		endpoint  = "/v1/tables/retention?index=0"
	)
	url := base + endpoint

	// Warm the encoding cache and sanity-check the endpoint.
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("serve-bench warm-up: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve-bench warm-up: status %d", resp.StatusCode)
	}

	errs := make(chan error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("serve-bench: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	total := clients * perClient
	return &serveBenchResult{
		Endpoint: endpoint, Clients: clients, Requests: total,
		Seconds: secs, RequestsPerSec: float64(total) / secs,
	}, nil
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
