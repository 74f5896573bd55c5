// Package cookieguard is the public API of the CookieGuard reproduction:
// a full-system implementation of "CookieGuard: Characterizing and
// Isolating the First-Party Cookie Jar" (IMC 2025) in pure Go.
//
// The package bundles three layers:
//
//   - a synthetic web plus browser-engine substrate (generated sites,
//     in-memory network fabric, SiteScript interpreter, RFC 6265 jar);
//   - the measurement pipeline of the paper's §4–5 (instrumented crawl,
//     cross-domain cookie analysis, exfiltration detection);
//   - the CookieGuard defense of §6–7 (per-script-domain cookie
//     isolation) with its breakage and performance evaluations.
//
// The API is a streaming, composable pipeline: crawl and analysis run in
// one pass, so memory stays O(workers) instead of O(sites). A minimal
// end-to-end run:
//
//	p := cookieguard.New(cookieguard.WithSites(500), cookieguard.WithInteract(true))
//	results, _ := p.Run(context.Background())
//	fmt.Println(results.Summary.SitesComplete)
//
// Stream is the crawl's only output — there is no batch crawl. For
// custom per-log processing, consume it directly; logs arrive in
// completion order, each record byte-identical at any worker count:
//
//	logs, errs := p.Stream(context.Background())
//	for v := range logs {
//		fmt.Println(v.Site, len(v.Cookies))
//	}
//	if err := <-errs; err != nil { ... }
package cookieguard

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"cookieguard/internal/analysis"
	"cookieguard/internal/artifact"
	"cookieguard/internal/breakage"
	"cookieguard/internal/browser"
	"cookieguard/internal/contenthash"
	"cookieguard/internal/crawler"
	"cookieguard/internal/entity"
	"cookieguard/internal/filterlist"
	"cookieguard/internal/guard"
	"cookieguard/internal/instrument"
	"cookieguard/internal/journal"
	"cookieguard/internal/netsim"
	"cookieguard/internal/perf"
	"cookieguard/internal/resultstore"
	"cookieguard/internal/trancolist"
	"cookieguard/internal/webgen"
)

// Re-exported core types, so downstream users work with one import path.
type (
	// Web is a generated synthetic web universe.
	Web = webgen.Web
	// Site is one generated website.
	Site = webgen.Site
	// Internet is the in-memory network fabric.
	Internet = netsim.Internet
	// Browser is the virtual browser.
	Browser = browser.Browser
	// Page is a loaded page.
	Page = browser.Page
	// VisitLog is the per-site measurement record.
	VisitLog = instrument.VisitLog
	// Analyzer is the incremental analysis engine (Observe, Snapshot,
	// Finalize).
	Analyzer = analysis.Analyzer
	// ResultStore is the versioned snapshot store behind
	// cookieguard.Server (Pipeline.ResultStore).
	ResultStore = resultstore.Store
	// ResultSnapshot is one published analysis version.
	ResultSnapshot = resultstore.Snapshot
	// ResultProgress is the crawl-progress stamp on a published snapshot.
	ResultProgress = resultstore.Progress
	// CacheStats is a snapshot of the artifact cache's per-tier hit/miss
	// counters (see Pipeline.CacheStats).
	CacheStats = artifact.Stats
	// PoolStats is a snapshot of the per-visit object pools' reuse
	// counters (see Pipeline.PoolStats).
	PoolStats = browser.PoolStats
	// ProgressStats is the live-counter payload delivered to
	// WithProgressStats callbacks after every completed visit.
	ProgressStats = crawler.ProgressStats
	// FaultConfig parameterizes a crawl's seeded fault injection
	// (WithFaults, Vantage.Faults).
	FaultConfig = netsim.FaultConfig
	// RetryPolicy bounds transient-fault retries per fetch
	// (WithRetryPolicy).
	RetryPolicy = browser.RetryPolicy
	// Vantage is a named crawl origin: a region with its own latency
	// model and fault rates (WithVantages).
	Vantage = netsim.Vantage
	// Breaker configures per-host circuit breaking (WithBreaker).
	Breaker = crawler.Breaker
	// SchedSnapshot is a plain-value copy of the scheduler counters
	// (Pipeline.SchedStats): visit virtual time, circuit-breaker
	// sheds/probes, second-pass volume.
	SchedSnapshot = crawler.SchedSnapshot
	// VantageStats is one vantage point's retention and latency-tail
	// rollup (Results.Vantages).
	VantageStats = analysis.VantageStats
	// PersonaStats is one consent persona's retention and tracking-delta
	// rollup (Results.Personas).
	PersonaStats = analysis.PersonaStats
	// FailureStats is the analysis rollup of the crawl failure taxonomy
	// (Results.Failures).
	FailureStats = analysis.FailureStats
	// Results is the aggregated analysis output.
	Results = analysis.Results
	// JournalStats is a snapshot of the checkpoint journal's counters
	// (Pipeline.CheckpointStats): units loaded/replayed on resume,
	// records/snapshots/bytes appended, fsync batches flushed.
	JournalStats = journal.Stats
	// Guard is a CookieGuard enforcement instance.
	Guard = guard.Guard
	// Policy configures CookieGuard enforcement.
	Policy = guard.Policy
	// EntityMap groups domains by owning entity.
	EntityMap = entity.Map
)

// Pipeline owns a generated web and the streaming measurement pipeline
// over it. Construct one with New, or with Derive for another crawl of a
// pipeline's web; zero values are not usable. Crawls of one web share
// the counters of its fabric and artifact cache (Net.Requests and
// Net.Faults, CacheStats, and the ProgressStats totals read from them).
type Pipeline struct {
	cfg config

	// Web is the generated synthetic web universe.
	Web *Web
	// Net is the in-memory network fabric serving Web. It injects no
	// faults: WithFaults and Vantage.Faults shape the crawl's fetches
	// only, so the evaluations see the web as generated.
	Net *Internet

	// artifacts is the pipeline-lifetime source-keyed cache: the web is
	// static, so compiled programs and DOM templates are shared across
	// every crawl, worker, and evaluation this pipeline runs. Nil when
	// disabled via WithArtifactCache(false).
	artifacts *artifact.Cache

	// sched accumulates scheduler counters across every crawl this
	// pipeline runs (all vantages share it, like the artifact cache).
	sched *crawler.SchedStats

	// store holds the versioned analysis snapshots cookieguard.Server
	// reads; built lazily by ResultStore (one per pipeline lifetime).
	store     *resultstore.Store
	storeOnce sync.Once

	// serve tracks the WithServer listener: bound once per pipeline, it
	// serves for the remainder of the process so results stay queryable
	// after Run returns — until Shutdown drains it.
	serveOnce sync.Once
	serveErr  error
	servedOn  string
	srvMu     sync.Mutex
	srv       *http.Server

	// jnl is the WithCheckpoint write-ahead journal, opened once on the
	// first crawl (resume happens there: an existing journal's units are
	// loaded for replay).
	jnlOnce sync.Once
	jnl     *journal.Journal
	jnlErr  error
}

// ErrCrashInjected is the abort cause of a crawl killed by the
// WithCrashAfterUnits harness (matched with errors.Is through whatever
// wrapping the pipeline adds).
var ErrCrashInjected = crawler.ErrCrashInjected

// New generates a synthetic web and returns the pipeline over it,
// configured by functional options:
//
//	p := cookieguard.New(
//		cookieguard.WithSites(2000),
//		cookieguard.WithWorkers(16),
//		cookieguard.WithInteract(true),
//		cookieguard.WithGuard(cookieguard.DefaultGuardPolicy()),
//	)
func New(opts ...Option) *Pipeline {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	w := webgen.Build(cfg.web())
	p := &Pipeline{cfg: cfg, Web: w, Net: w.BuildInternet(), sched: &crawler.SchedStats{}}
	if !cfg.noArtifacts {
		p.artifacts = artifact.New()
	}
	return p
}

// web resolves the web an option set names; personas act on consent
// banners, so they imply CMP. New builds it, and Derive compares it.
func (c *config) web() webgen.Config {
	gen := webgen.DefaultConfig(c.sites)
	if c.seed != 0 {
		gen.Seed = c.seed
	}
	gen.CMP = c.cmp || len(c.personas) > 0
	return gen
}

// Derive returns another crawl of p's web: a pipeline configured by opts
// alone, applied over p's site count, seed and CMP, that shares p's Web,
// Net and artifact cache and may crawl while p does. Its scheduler
// counters, result store, server and journal are its own. Options that
// name another web (site count, seed, CMP, or personas without CMP) or
// toggle the artifact cache, whose counters the crawls of one web share,
// are refused.
func (p *Pipeline) Derive(opts ...Option) (*Pipeline, error) {
	web := p.cfg.web()
	cfg := config{sites: p.cfg.sites, seed: p.cfg.seed, cmp: web.CMP, noArtifacts: p.cfg.noArtifacts}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.web() != web || cfg.noArtifacts != p.cfg.noArtifacts {
		return nil, errors.New("cookieguard: Derive: the options name another web or toggle the artifact cache")
	}
	return &Pipeline{cfg: cfg, Web: p.Web, Net: p.Net, artifacts: p.artifacts, sched: &crawler.SchedStats{}}, nil
}

// CacheStats returns a snapshot of the artifact cache's per-tier
// hit/miss counters, evictions and resident bytes (all zero when the
// cache is disabled). A long crawl should show program hit rates
// approaching 1, since the shared third-party scripts stay resident,
// and resident bytes that level off however many sites it visits;
// persistent misses mean the workload has little cross-visit
// redundancy. The counts depend on worker scheduling, so two runs of
// one crawl may differ slightly (see artifact.Stats).
//
// Safe to call at any time, including concurrently with a running
// crawl: the snapshot is a consistent-enough point-in-time read for
// live dashboards (individual tiers are read independently, so a
// snapshot taken mid-visit may be a few lookups apart across tiers).
// cookieguard.Server reads it live on /v1/stats.
func (p *Pipeline) CacheStats() CacheStats {
	if p.artifacts == nil {
		return CacheStats{}
	}
	return p.artifacts.Stats()
}

// PoolStats returns a snapshot of the per-visit object pools' reuse
// counters (pages, interpreters, DOM arenas). The counters are
// process-wide and monotonic; on a long pooled crawl the reuse rate
// (PoolStats.ReuseRate) should approach 1.
func (p *Pipeline) PoolStats() PoolStats {
	return browser.CollectPoolStats()
}

// SiteList returns the pipeline's ranked site list (Tranco analogue).
func (p *Pipeline) SiteList() []trancolist.Entry {
	entries := make([]trancolist.Entry, len(p.Web.Sites))
	for i, site := range p.Web.Sites {
		entries[i] = trancolist.Entry{Rank: site.Rank, Domain: site.Domain}
	}
	return entries
}

// ensureJournal opens the WithCheckpoint journal on first use (resume
// happens here: an existing journal's units load for replay) and
// returns it; (nil, nil) when checkpointing is off. Idempotent — later
// calls return the first outcome.
func (p *Pipeline) ensureJournal() (*journal.Journal, error) {
	if p.cfg.checkpointDir == "" {
		return nil, nil
	}
	p.jnlOnce.Do(func() {
		p.jnl, p.jnlErr = journal.Open(p.cfg.checkpointDir, p.checkpointFingerprint())
	})
	return p.jnl, p.jnlErr
}

// checkpointFingerprint digests every configuration knob that changes
// the crawl's emitted bytes, so a journal is only ever resumed under
// the configuration that wrote it. Knobs the determinism contract
// makes byte-invisible are deliberately excluded — the worker count
// (a multi-lane crawl emits what a single-lane crawl of the same cell
// would), pooling, the artifact cache — which is exactly what lets a
// crawl resume at a different worker count. Vantage latency models are functions and likewise
// excluded (latency shifts virtual timing deterministically from the
// vantage name's seed, which is covered).
func (p *Pipeline) checkpointFingerprint() string {
	type vant struct {
		Name   string             `json:"name"`
		Faults netsim.FaultConfig `json:"faults"`
	}
	vants := make([]vant, 0, len(p.cfg.vantages))
	for _, v := range p.cfg.vantages {
		vants = append(vants, vant{Name: v.Name, Faults: v.Faults})
	}
	// visit_budget is always 0: the per-visit budget option is gone, but
	// the key stays so that fingerprints, and with them journals written
	// before its removal, do not change.
	fp := struct {
		Version     int                 `json:"version"`
		Sites       int                 `json:"sites"`
		Seed        uint64              `json:"seed"`
		Interact    bool                `json:"interact"`
		Guard       *guard.Policy       `json:"guard,omitempty"`
		Faults      *netsim.FaultConfig `json:"faults,omitempty"`
		Retry       RetryPolicy         `json:"retry"`
		VisitBudget float64             `json:"visit_budget"` // always 0, see above
		SecondPass  bool                `json:"second_pass"`
		Breaker     Breaker             `json:"breaker"`
		Autopilot   bool                `json:"autopilot"`
		Vantages    []vant              `json:"vantages,omitempty"`
		Personas    []string            `json:"personas,omitempty"`
		CMP         bool                `json:"cmp"`
	}{
		Version:    1,
		Sites:      p.cfg.sites,
		Seed:       p.cfg.seed,
		Interact:   p.cfg.interact,
		Guard:      p.cfg.guard,
		Faults:     p.cfg.faults,
		Retry:      p.cfg.retry,
		SecondPass: p.cfg.secondPass,
		Breaker:    p.cfg.breaker,
		Autopilot:  p.cfg.autopilot,
		Vantages:   vants,
		Personas:   p.cfg.personas,
		CMP:        p.cfg.cmp,
	}
	b, err := json.Marshal(fp)
	if err != nil {
		// Every field above is marshalable by construction.
		panic("cookieguard: checkpoint fingerprint: " + err.Error())
	}
	return contenthash.Sum(string(b))
}

// CheckpointStats returns a snapshot of the checkpoint journal's
// counters — units loaded and replayed on resume, records, snapshots,
// bytes, and fsync batches appended — and whether checkpointing is
// active (false without WithCheckpoint, or if the journal failed to
// open).
func (p *Pipeline) CheckpointStats() (JournalStats, bool) {
	jnl, err := p.ensureJournal()
	if jnl == nil || err != nil {
		return JournalStats{}, false
	}
	return jnl.Stats(), true
}

// errStream is the degenerate stream of a crawl that failed before
// starting: closed log channel, one error.
func errStream(err error) (<-chan VisitLog, <-chan error) {
	out := make(chan VisitLog)
	close(out)
	errc := make(chan error, 1)
	errc <- err
	close(errc)
	return out, errc
}

// crawlOptions assembles the crawler configuration — every configured
// (vantage, persona) lane through one worker pool, guarded when a policy
// is configured. p.jnl must be resolved
// (ensureJournal) before any crawl options are built.
func (p *Pipeline) crawlOptions() crawler.Options {
	opts := crawler.Options{
		Internet:        p.Net,
		Workers:         p.cfg.workers,
		Interact:        p.cfg.interact,
		Seed:            p.cfg.seed,
		Retry:           p.cfg.retry,
		ProgressStats:   p.cfg.progressStats,
		Artifacts:       p.artifacts,
		DisablePooling:  p.cfg.noPooling,
		Breaker:         p.cfg.breaker,
		SecondPass:      p.cfg.secondPass,
		Guard:           p.cfg.guard,
		Vantages:        p.crawlVantages(),
		Personas:        p.cfg.personas,
		Stats:           p.sched,
		Journal:         p.jnl,
		CrashAfterUnits: p.cfg.crashAfter,
	}
	if p.cfg.autopilot {
		// WithBreakerAutopilot implies the breaker, whatever the option
		// order; WithBreaker's round size and reference cooldown apply.
		opts.Breaker.Enabled = true
		opts.Breaker.Autopilot = true
	}
	return opts
}

// crawlVantages is the vantage list the crawler runs: the configured
// one, with the WithFaults schedule filled into every vantage that has
// no fault schedule of its own (the implicit default vantage included).
// Faults are a setting of the crawl alone; the fabric that the
// evaluations share stays fault-free.
func (p *Pipeline) crawlVantages() []Vantage {
	vants := p.Vantages()
	for i := range vants {
		if p.cfg.faults != nil && !vants[i].Faults.Enabled() {
			vants[i].Faults = *p.cfg.faults
		}
	}
	return vants
}

// Vantages returns the pipeline's configured vantage points; with none
// configured, the single implicit default vantage.
func (p *Pipeline) Vantages() []Vantage {
	if len(p.cfg.vantages) == 0 {
		return []Vantage{{}}
	}
	return append([]Vantage(nil), p.cfg.vantages...)
}

// Personas returns the pipeline's configured consent personas; empty
// means the single implicit persona-free crawl.
func (p *Pipeline) Personas() []string {
	return append([]string(nil), p.cfg.personas...)
}

// SchedStats returns a snapshot of the scheduler counters accumulated
// over every crawl this pipeline has run: visit virtual time,
// circuit-breaker shed/probe activity, and second-pass volume. All
// zero unless WithBreaker/WithSecondPass (or a breaker-enabled crawl)
// produced any.
//
// Safe to call at any time, including concurrently with a running
// crawl: every counter is an atomic and the snapshot is a plain-value
// copy, so mid-run reads observe monotonically advancing totals (as on
// cookieguard.Server's /v1/stats), not just the end-of-run state.
func (p *Pipeline) SchedStats() SchedSnapshot {
	return p.sched.Snapshot()
}

// Stream runs the instrumented measurement crawl (§4) and is its only
// output: visit logs arrive incrementally, in completion order, as each
// visit finishes. Completion order varies with worker count and timing,
// but every record's bytes do not — key records by (Site, Vantage,
// Persona), as cmd/crawl -sort does, to compare two crawls. The log
// channel is bounded by the worker count, so a slow consumer
// backpressures the crawl; cancelling the context stops the crawl
// mid-stream, and a consumer may walk away after cancelling. Both
// channels close when the crawl ends; the error channel yields at most
// one error.
//
// With WithVantages configured, the stream visits every site once per
// vantage point over one frozen web and one artifact cache, each log
// tagged with its vantage name; WithPersonas multiplies the plan again
// (one unit per (site, vantage, persona), each log tagged Persona).
// Every (vantage, persona) cell is a scheduling lane visiting the ranked
// sites in order, and all lanes' visits interleave through one worker
// pool; each lane's records are byte-identical to a single-lane crawl
// of the same cell. The WithProgressStats callback reports one
// monotonic Done out of sites × vantages × personas.
//
// Each log belongs to the consumer. A consumer done with a log may call
// its Release, which hands the log's buffers to the next visit's log
// (see VisitLog.Release); one that keeps logs, or just drops them,
// needs to do nothing.
func (p *Pipeline) Stream(ctx context.Context) (<-chan VisitLog, <-chan error) {
	if _, err := p.ensureJournal(); err != nil {
		return errStream(err)
	}
	return crawler.Stream(ctx, crawler.SiteURLs(trancolist.Domains(p.SiteList())), p.crawlOptions())
}

// Run executes the full pipeline — crawl (§4) plus analysis (§4.4) — in
// a single streaming pass over Stream: every visit log is folded into
// the analyzer as soon as its visit finishes and then released, so at
// most O(workers) logs are resident regardless of the site count and
// their buffers serve later visits.
// The analysis is order-independent, so Results.StableJSON() is
// byte-identical at any worker count.
//
// With WithServer or WithSnapshotEvery configured, Run additionally
// publishes a versioned snapshot into ResultStore() every K observed
// visits (Analyzer.Snapshot, taken between two Observes on this one
// consumer goroutine) and, under WithServer, binds the HTTP server
// before crawling; a bind failure fails the run. The final snapshot
// published at finalize is the exact Results value Run returns, marked
// Progress.Final. Publishing never changes what is observed, so the
// Results are byte-identical to an unserved run's.
func (p *Pipeline) Run(ctx context.Context) (*Results, error) {
	var store *resultstore.Store
	if p.cfg.serveAddr != "" || p.cfg.snapEvery > 0 {
		if p.cfg.serveAddr != "" {
			if _, err := p.StartServer(p.cfg.serveAddr); err != nil {
				return nil, err
			}
		}
		store = p.ResultStore()
	}
	every := p.cfg.snapEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	total := len(p.Web.Sites) * len(p.Vantages()) * max(1, len(p.cfg.personas))

	an := p.NewAnalyzer()
	observed := 0
	logs, errs := p.Stream(ctx)
	for v := range logs {
		an.Observe(v)
		v.Release() // Observe keeps no reference to v
		observed++
		if store != nil && observed%every == 0 {
			store.Publish(resultstore.Progress{Done: observed, Total: total}, an.Snapshot())
		}
	}
	if err := <-errs; err != nil {
		return nil, err
	}
	res := an.Finalize()
	if store != nil {
		store.Publish(resultstore.Progress{Done: observed, Total: total, Final: true}, res)
	}
	return res, nil
}

// defaultSnapshotEvery is the publish cadence (in observed visits) when
// WithSnapshotEvery is unset.
const defaultSnapshotEvery = 64

// ResultStore returns the pipeline's versioned snapshot store (created
// on first use). Run feeds it when serving is enabled; embedded
// consumers may also Publish into it directly — cookieguard.Server
// serves whatever the store holds.
func (p *Pipeline) ResultStore() *resultstore.Store {
	p.storeOnce.Do(func() { p.store = resultstore.New() })
	return p.store
}

// StartServer binds addr and serves this pipeline's result store (see
// the Server doc) for the remainder of the process — or until Shutdown
// drains it. It returns the bound address (useful with ":0") and is
// idempotent: the first call binds, later calls return the first
// outcome. Run calls it with the WithServer address; call it directly
// to serve without Run or on a second address.
//
// The server is a real http.Server, not a bare Serve loop: slow
// clients cannot park in header reads forever (ReadHeaderTimeout) or
// hold idle keep-alives indefinitely (IdleTimeout), and Shutdown can
// drain in-flight requests. There is deliberately no WriteTimeout —
// blocking queries legitimately hold their response open for the full
// `?wait` duration.
func (p *Pipeline) StartServer(addr string) (string, error) {
	p.serveOnce.Do(func() {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			p.serveErr = err
			return
		}
		p.servedOn = ln.Addr().String()
		srv := &http.Server{
			Handler:           p.NewServer(),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		p.srvMu.Lock()
		p.srv = srv
		p.srvMu.Unlock()
		go srv.Serve(ln)
	})
	return p.servedOn, p.serveErr
}

// Shutdown gracefully winds the pipeline's serving side down: it
// releases every long-poll parked in the result store's blocking
// queries (each returns its current snapshot, as a timed-out poll
// would), drains the StartServer HTTP server via http.Server.Shutdown
// — in-flight requests complete, new connections are refused — and
// syncs and closes the checkpoint journal (CheckpointStats still
// reports its counters afterwards). ctx bounds the drain; an expired
// ctx abandons remaining connections and returns its error. Safe to call whether or not a server was started, and
// more than once. Shutdown does not cancel a running crawl — cancel
// the crawl's context for that (the crawl's own defers flush the final
// journal snapshot); call Shutdown after the crawl has stopped.
func (p *Pipeline) Shutdown(ctx context.Context) error {
	p.ResultStore().Close()
	p.srvMu.Lock()
	srv := p.srv
	p.srvMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if jnl, _ := p.ensureJournal(); jnl != nil {
		if cerr := jnl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// NewAnalyzer returns an incremental analyzer wired to this pipeline's
// entity map and a fresh tracker classifier. Feed it with Observe per
// visit log, read mid-run aggregates with Snapshot, and collect the
// final aggregate with Finalize.
func (p *Pipeline) NewAnalyzer() *Analyzer {
	an := analysis.New()
	an.Entities = p.Web.Entities
	an.IsTracker = filterlist.ScriptTracker()
	return an
}

// EvaluateBreakage runs the Table 3 assessment over a sample of n sites.
// It fetches through the fault-free fabric (WithFaults shapes the crawl
// only), so every breakage it reports comes from the guard. It shares
// the pipeline's artifact cache (honouring WithArtifactCache).
func (p *Pipeline) EvaluateBreakage(n int, cond breakage.Condition) (breakage.Table3, error) {
	sample := breakage.Sample(p.Web, n)
	t, _, err := breakage.Evaluate(p.Net, p.Web, sample, cond, p.artifacts)
	return t, err
}

// EvaluatePerformance runs the §7.3 paired timing measurement over up to
// n complete sites on the fault-free fabric (WithFaults shapes the crawl
// only), so the overhead it reports is the guard's. It shares the
// pipeline's artifact cache (honouring WithArtifactCache).
func (p *Pipeline) EvaluatePerformance(n int) (*perf.Results, error) {
	sites := p.Web.CompleteSites()
	if n > 0 && n < len(sites) {
		sites = sites[:n]
	}
	return perf.Run(p.Net, p.Web, sites, p.artifacts)
}

// DefaultGuardPolicy exposes the paper's evaluated policy.
func DefaultGuardPolicy() Policy { return guard.DefaultPolicy() }

// UniformFaults spreads an overall per-attempt fault rate across the
// fault mix in fixed proportions (see netsim.UniformFaults). It is the
// one-knob config for WithFaults and cmd/experiments -faults.
func UniformFaults(rate float64, seed uint64) FaultConfig {
	return netsim.UniformFaults(rate, seed)
}

// DefaultRetryPolicy is three attempts with jittered exponential backoff
// on the virtual clock (see browser.DefaultRetryPolicy).
func DefaultRetryPolicy() RetryPolicy { return browser.DefaultRetryPolicy() }

// RegionVantage is the convenience constructor for WithVantages: a
// named vantage with the region's derived latency model and, when rate
// is non-zero, a region-seeded uniform fault mix — so two regions crawl
// the same web at different distances with independent fault schedules.
func RegionVantage(name string, rate float64, seed uint64) Vantage {
	v := Vantage{Name: name}
	if rate > 0 {
		v.Faults = netsim.UniformFaults(rate, netsim.RegionSeed(seed, name))
	}
	return v
}
