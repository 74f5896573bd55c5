package cookieguard

// Option configures a Pipeline, functional-options style. Options are
// applied in order by New; later options override earlier ones.
type Option func(*config)

// config is the resolved option set of a Pipeline.
type config struct {
	sites         int
	seed          uint64
	workers       int
	interact      bool
	guard         *Policy
	progressStats func(ProgressStats)
	noArtifacts   bool
	noPooling     bool
	faults        *FaultConfig
	retry         RetryPolicy
	secondPass    bool
	breaker       Breaker
	autopilot     bool
	vantages      []Vantage
	personas      []string
	cmp           bool
	serveAddr     string
	snapEvery     int
	checkpointDir string
	crashAfter    int
}

// WithSites sets the number of sites to generate (the paper used 20,000).
func WithSites(n int) Option {
	return func(c *config) { c.sites = n }
}

// WithSeed overrides the default deterministic seed for web generation
// and per-visit browser randomness.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithWorkers bounds crawl concurrency (default 8). The worker count
// also bounds the streaming pipeline's resident visit logs.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithInteract enables the light user-interaction step (§4.2): scrolling
// plus up to three random same-site link clicks with two-second pauses.
func WithInteract(on bool) Option {
	return func(c *config) { c.interact = on }
}

// WithGuard crawls with CookieGuard enforcement enabled under the given
// policy; a fresh Guard is constructed per visit.
func WithGuard(pol Policy) Option {
	return func(c *config) { c.guard = &pol }
}

// WithFaults subjects the pipeline's crawl to a seeded deterministic
// fault schedule: 5xx responses, connection resets, timeouts, truncated
// bodies, tail-latency spikes, and per-host flap windows on the virtual
// clock, at the rates the config sets (see UniformFaults for a one-knob
// mix). The schedule is the fault config of every crawl vantage that
// has none of its own (the implicit default vantage included), so the
// browser, crawler, guard and analysis see the faults exactly as they
// would see a real flaky network, while the fabric itself, and with it
// EvaluateBreakage and EvaluatePerformance, stays fault-free. Same seed
// and config ⇒ byte-identical per-site records across runs and worker
// counts; a zero-rate config is byte-identical to not calling
// WithFaults at all. Pair with WithRetryPolicy for a resilient crawl,
// and read the outcome from Results.Failures / Results.FailureTable().
func WithFaults(cfg FaultConfig) Option {
	return func(c *config) { c.faults = &cfg }
}

// WithRetryPolicy bounds per-fetch retries of transient failures
// (connection resets, timeouts, truncated bodies, 5xx responses) with
// seeded jittered backoff on the virtual clock. The zero policy (and
// not calling this option) performs single attempts, reproducing the
// historical behaviour byte for byte; DefaultRetryPolicy() is a sane
// starting point. A crawl over a host that fails on every attempt still
// terminates within MaxAttempts tries per fetch.
func WithRetryPolicy(rp RetryPolicy) Option {
	return func(c *config) { c.retry = rp }
}

// WithProgressStats registers the crawl's progress callback, invoked
// after every finished visit with live counters: Done out of Total
// (sites × vantages × personas, one monotonic count across lanes), the
// fabric's request and injected-fault totals, artifact-cache hit/miss
// counters, and object-pool reuse counters — cmd/crawl -v prints these
// lines. Invocations are serialized (no two run concurrently) but arrive
// on crawl worker goroutines; a slow callback backpressures the crawl.
func WithProgressStats(fn func(ProgressStats)) Option {
	return func(c *config) { c.progressStats = fn }
}

// WithPooling enables (the default) or disables per-visit object
// pooling: pages, DOM arenas, SiteScript interpreters, and cached
// network exchanges are recycled across visits behind an explicit
// release lifecycle owned by the crawl workers. Pooling is semantically
// invisible — pooled and unpooled runs with the same seed emit
// byte-identical per-site records, under faults and at any worker count
// (enforced by equivalence tests) — and exists to take allocation and GC
// pressure out of the visit hot path. Disable it to reproduce the
// unpooled baseline or when embedding the pipeline next to code that
// must not share pooled state.
func WithPooling(on bool) Option {
	return func(c *config) { c.noPooling = !on }
}

// WithSecondPass enables the fault-aware second pass: visits whose
// landing failed on a transient class (conn-reset, timeout, truncated —
// plus circuit-open sheds) are re-crawled once the primary frontier
// drains, and only the re-crawl's record is emitted — the way real
// measurement crawls re-run their failure set. The re-crawl's browser
// starts its virtual clock 45 s later (flap schedules can have moved
// on) and continues its attempt numbering (per-attempt fault decisions
// draw fresh); its request records carry the pass marker in
// RequestEvent.Attempt. Off (the default) changes nothing.
func WithSecondPass(on bool) Option {
	return func(c *config) { c.secondPass = on }
}

// WithBreaker configures consul-style per-host circuit breaking: a host
// that keeps failing on transient classes has its circuit opened, and
// open circuits shed fetches — and whole visits whose landing document
// lives on the host — with FailureClass "circuit-open" instead of
// burning the retry budget; after the cooldown (on the crawl's virtual
// clock) half-open probes re-admit recovered hosts. Accounting is
// round-synchronous, so breaker-enabled crawls stay byte-identical
// across runs and worker counts. The zero config (and not calling this
// option) changes nothing.
func WithBreaker(cfg Breaker) Option {
	return func(c *config) { c.breaker = cfg }
}

// WithBreakerAutopilot enables the circuit breaker with self-tuning
// thresholds: instead of the fixed FailureThreshold/OpenForMs
// constants, each host's trip point and cooldown are derived from its
// observed inter-failure intervals on the crawl virtual clock (an EWMA
// of the host's flap period, consul-autopilot style) — fast flappers
// trip earlier and are probed on their own cadence, hosts that stay
// down are probed on an exponential backoff, and sparse blips get one
// extra failure of grace. Deterministic like the fixed breaker: the
// learned values are a pure function of the seeded fault schedule, so
// records stay byte-identical across runs and worker counts. Composes
// with WithBreaker (its RoundVisits and reference OpenForMs still
// apply); without it, autopilot runs on the breaker defaults. Not
// calling this option keeps the fixed-constant breaker.
func WithBreakerAutopilot() Option {
	return func(c *config) { c.autopilot = true }
}

// WithVantageParallel is a no-op kept for source compatibility: every
// crawl runs all of its (vantage, persona) lanes through one worker
// pool.
//
// Deprecated: lanes are the only crawl path; drop the call.
func WithVantageParallel(bool) Option {
	return func(*config) {}
}

// WithVantages crawls the pipeline's web from the given vantage points
// — per-region latency models and fault rates over one frozen web and
// one shared artifact cache. Stream and Run visit every site once per
// vantage (in the given order), each record tagged with its
// VisitLog.Vantage, and Results.Vantages / Results.VantageTable()
// compare the per-vantage failure counts and load-event latency tails
// (the Figure 6 comparison across regions). A vantage whose Faults is
// not enabled crawls under the WithFaults schedule, or fault-free
// without one. No vantages (the default) crawls from the implicit
// default vantage — byte-identical to before vantages existed; a single
// default vantage is equivalent.
func WithVantages(vs ...Vantage) Option {
	return func(c *config) { c.vantages = append(c.vantages, vs...) }
}

// WithPersonas crawls every (site, vantage) pair once per named consent
// persona, extending the crawl plan to units of (site, vantage,
// persona). A persona is a consent-interaction policy: before normal
// interaction the crawler clicks the consent banner's matching action
// on the landing page — "accept" grants consent (the CMP loader injects
// the site's gated trackers), "reject" denies it, "dismiss" closes the
// banner leaving consent unset. Configuring personas implies WithCMP:
// the generated web grows per-site consent-manager banners and
// manifests of gated trackers. Every record is tagged VisitLog.Persona,
// and Results.Personas / Results.PersonaTable() compare retention and
// exfiltration across consent states. Personas never salt the visit
// seed — a persona's records differ from another's only through page
// behaviour, and persona crawls stay byte-identical across runs, worker
// counts, and lane interleavings. No personas (the default) crawls once,
// byte-identical to before personas existed.
func WithPersonas(names ...string) Option {
	return func(c *config) { c.personas = append(c.personas, names...) }
}

// WithCMP generates the web with consent-management platforms: a seeded
// subset of each site's tracking services moves behind a consent
// manifest whose loader script gates tracker execution on the consent
// cookie and renders an accept/reject/dismiss banner. Off (the
// default), the generated web is byte-identical to before CMPs existed.
// WithPersonas implies it; enable it alone to crawl a CMP web without
// acting on the banner (consent stays unset everywhere).
func WithCMP(on bool) Option {
	return func(c *config) { c.cmp = on }
}

// WithServer serves live analysis over HTTP at addr (e.g. ":8089") for
// the duration of the process: Pipeline.Run binds the address before
// crawling (a bind failure fails the run) and, as the crawl advances,
// publishes analysis snapshots into the result store that
// cookieguard.Server exposes — per-site records, the retention /
// failure / vantage / action tables, progress, and live scheduler and
// cache counters, each with Consul-style `?index=N&wait=30s` blocking
// queries and ETag/304 caching (see the Server doc in server.go for the
// endpoint list and index protocol). The served run produces Results
// byte-identical to an unserved run with the same options. Publish
// cadence defaults to every 64 observed visits; tune with
// WithSnapshotEvery.
func WithServer(addr string) Option {
	return func(c *config) { c.serveAddr = addr }
}

// WithSnapshotEvery sets the snapshot-publish cadence of a served run: a
// fresh immutable Results snapshot is published (and blocked pollers
// woken) every k observed visits, plus always once at finalize. Smaller
// k means fresher dashboards and more snapshot work; k only matters when
// serving is on (WithServer) or the ResultStore is consumed directly —
// it also enables the publishing run path on its own, so
// WithSnapshotEvery without WithServer still feeds ResultStore() for
// embedded consumers. Zero (the default) keeps the default cadence of
// 64.
func WithSnapshotEvery(k int) Option {
	return func(c *config) { c.snapEvery = k }
}

// WithCheckpoint enables crash-safe checkpointing: the crawl appends
// every terminal (site, vantage, persona) unit to a write-ahead journal
// in dir (one fsync-batched file, crawl.waj) together with periodic
// lane snapshots of the scheduler's deterministic state — breaker
// circuits, autopilot estimates, the lane virtual clock, and the
// second-pass set. If dir already holds a journal from an interrupted
// run with the same configuration, the crawl RESUMES: the scheduler
// re-runs its identical deterministic dispatch, journaled units
// re-execute with their fresh outcome verified field-for-field against
// the journal, live crawling picks up at the first missing unit, and
// the journaled snapshots cross-check the recomputed lane state (a
// mismatch fails the crawl loudly rather than emitting silently
// different records). Journal records are compact — a few hundred
// bytes of unit key and scheduler feedback, hash-prefixed on disk —
// so journaling costs a few percent of throughput at most. A resumed
// crawl's records, Results.StableJSON(), and scheduler counters are
// byte-identical to an uninterrupted run's — across worker counts,
// clean or faulted. A
// journal written under a different configuration (sites, seed, faults,
// vantages, personas, scheduler knobs — anything that changes emitted
// bytes) is rejected with an error; worker count and region latency
// models are deliberately not part of that fingerprint. Empty (the
// default) disables checkpointing.
func WithCheckpoint(dir string) Option {
	return func(c *config) { c.checkpointDir = dir }
}

// WithCrashAfterUnits arms the deterministic crash-injection harness:
// the crawl aborts with ErrCrashInjected immediately after the n-th
// unit record is appended to the checkpoint journal (the n-th record
// itself is durable — the kill fires after the write, like a real
// crash between write and acknowledgement). Requires WithCheckpoint;
// configuring it without a checkpoint directory fails the crawl. It
// exists for resume testing — kill at a seeded unit count, resume, and
// diff against an uninterrupted run; do not arm it on the resume
// invocation or the resume will crash again after n fresh units. Zero
// (the default) disables injection.
func WithCrashAfterUnits(n int) Option {
	return func(c *config) { c.crashAfter = n }
}

// WithArtifactCache enables (the default) or disables the pipeline's
// source-keyed artifact cache. Enabled, the pipeline keeps one cache for
// its lifetime — compiled SiteScript programs and DOM templates are
// computed once per residency of their source and reused by every worker
// of every crawl over the pipeline's static web. Each tier holds a
// bounded working set of recently used content (see package artifact),
// so the cache's memory does not grow with the size of the web. Caching
// is semantically invisible: the same seed emits byte-identical per-site
// records with the cache on or off, and simulated parse latency is still
// charged to the virtual clock. Disable it to reproduce the uncached
// baseline (CacheStats then stays zero). The fabric serves its bodies in
// place either way.
func WithArtifactCache(on bool) Option {
	return func(c *config) { c.noArtifacts = !on }
}
