package crawler

// Consul-style per-host circuit breaking for the crawl scheduler. Every
// fetch outcome feeds per-host failure accounting; a host that keeps
// failing on transient classes has its circuit opened, and while the
// circuit is open every fetch to it — and every whole visit whose
// landing document lives on it — is shed with FailureClass
// "circuit-open" instead of burning the retry budget against a host
// that is down anyway. Open circuits expire on the crawl's virtual
// clock: after the cooldown of accumulated virtual time the circuit
// turns half-open and the next round's fetches act as probes — a
// successful contact closes the circuit, another transient failure
// re-opens it.
//
// Determinism is the hard constraint, and it is why the breaker is
// round-synchronous: visits complete in wall-clock order, which varies
// with the worker count, so folding outcomes as they arrive would make
// shed decisions — and with them the emitted records — depend on
// scheduling. Instead the dispatcher runs each vantage lane in rounds
// of RoundVisits: it dispatches a round against a frozen snapshot of
// the open circuits, barriers until the round completes, sorts the
// round's outcomes by visit index, and only then folds them into the
// accounting. Round composition depends only on the frontier's pop
// order and the snapshot only on prior rounds, so the same seed and
// config produce byte-identical records at any worker count. The crawl
// virtual clock advances per round by the round's mean visit duration
// — a worker-count-independent proxy for elapsed crawl time (see
// endRound).
//
// With Autopilot enabled the fixed FailureThreshold/OpenForMs constants
// become per-host learned values: the breaker tracks an EWMA of each
// host's inter-failure intervals on the crawl virtual clock (the
// observable trace of the fabric's flap period) and derives the
// threshold from it — hosts whose failures recur within one cooldown
// are known flappers and trip one failure earlier; hosts whose failures
// are sparse blips demand one more — while the cooldown starts at the
// clamped flap-period estimate and doubles on every consecutive failed
// probe (capped), so a host that stays down is probed on an exponential
// backoff instead of a fixed cadence. All learned state folds in the
// same sorted round order as the circuits themselves, so autopilot
// decisions are a pure function of the seeded fault schedule:
// byte-identical records at any worker count, like the fixed-constant
// breaker.

import (
	"sort"
	"sync"
	"sync/atomic"

	"cookieguard/internal/browser"
	"cookieguard/internal/journal"
)

// Breaker configures the crawl's per-host circuit breaker. The zero
// value is disabled; enabling it with zero thresholds applies the
// defaults noted per field.
type Breaker struct {
	// Enabled turns circuit breaking on.
	Enabled bool
	// FailureThreshold is the per-host count of accumulated transient
	// fetch failures (without an intervening successful contact) that
	// opens the circuit (default 3). With Autopilot it is the starting
	// point the learned per-host threshold deviates from.
	FailureThreshold int
	// OpenForMs is how long an opened circuit sheds, in crawl virtual
	// milliseconds, before turning half-open and admitting probes
	// (default 30000 — one default flap period). With Autopilot it is
	// the reference cooldown the learned per-host value is clamped
	// around.
	OpenForMs float64
	// RoundVisits is the scheduling round size — the breaker's
	// accounting quantum (default 32). Smaller rounds react faster but
	// barrier more often.
	RoundVisits int
	// Autopilot derives each host's failure threshold and cooldown from
	// its observed inter-failure intervals (EWMA of the flap period on
	// the crawl virtual clock) instead of the fixed constants, with
	// exponential probe backoff for hosts that stay down. Deterministic:
	// the learned values are a pure function of the seeded fault
	// schedule, so records stay byte-identical across runs and worker
	// counts. Off (the default) keeps the fixed-constant breaker.
	Autopilot bool
}

func (b Breaker) threshold() int {
	if b.FailureThreshold > 0 {
		return b.FailureThreshold
	}
	return 3
}

func (b Breaker) openFor() float64 {
	if b.OpenForMs > 0 {
		return b.OpenForMs
	}
	return 30000
}

func (b Breaker) roundSize() int {
	if b.RoundVisits > 0 {
		return b.RoundVisits
	}
	return 32
}

// Autopilot tuning constants. The EWMA weight favours recent intervals
// (the fabric's flap behaviour is stationary, but the crawl sees it
// through bursty rounds); the cap bounds the exponential probe backoff
// to 16 reference cooldowns so a recovered host is never ignored for
// more than that.
const (
	autopilotAlpha      = 0.5
	autopilotBackoffCap = 16
)

// circuitState is a host circuit's position in the breaker state machine.
type circuitState uint8

const (
	circuitClosed circuitState = iota
	circuitOpen
	circuitHalfOpen
)

// circuit is one host's failure accounting.
type circuit struct {
	state    circuitState
	failures int     // transient failures since the last successful contact
	openedMs float64 // crawl virtual time the circuit last opened

	// Autopilot-learned state, folded in deterministic round order.
	seenFail   bool
	lastFailMs float64 // crawl virtual time of the last failure observation
	ifiEwmaMs  float64 // EWMA of inter-failure intervals (flap-period estimate)
	ifiSamples int
	reopens    int // consecutive failed probes since the last close
}

// breakerState is one vantage lane's crawl-lifetime accounting, owned by
// the dispatch goroutine; only the per-round snapshots it publishes are
// shared.
type breakerState struct {
	cfg    Breaker
	hosts  map[string]*circuit
	vnowMs float64 // crawl virtual clock: sum of per-round mean visit durations
	stats  *SchedStats
}

func newBreakerState(cfg Breaker, stats *SchedStats) *breakerState {
	return &breakerState{cfg: cfg, hosts: map[string]*circuit{}, stats: stats}
}

// thresholdFor is the failure count that opens a circuit. Fixed mode
// returns the configured constant; autopilot shifts it by the learned
// inter-failure interval: failures recurring within one reference
// cooldown mark a flapper (trip one earlier), failures spread over four
// or more mark sparse blips (demand one more).
func (b *breakerState) thresholdFor(c *circuit) int {
	t := b.cfg.threshold()
	if !b.cfg.Autopilot || c.ifiSamples == 0 {
		return t
	}
	switch base := b.cfg.openFor(); {
	case c.ifiEwmaMs <= base:
		if t > 1 {
			t--
		}
	case c.ifiEwmaMs >= 4*base:
		t++
	}
	return t
}

// openForMs is how long a circuit sheds before half-opening. Fixed mode
// returns the configured constant; autopilot starts from the learned
// flap-period estimate clamped to [base/4, base] — fast flappers are
// probed on their own cadence — and doubles per consecutive failed
// probe up to autopilotBackoffCap reference cooldowns, so a host that
// stays down costs exponentially fewer probe visits.
func (b *breakerState) openForMs(c *circuit) float64 {
	base := b.cfg.openFor()
	if !b.cfg.Autopilot {
		return base
	}
	d := base
	if c.ifiSamples >= 2 {
		d = c.ifiEwmaMs
		if d < base/4 {
			d = base / 4
		}
		if d > base {
			d = base
		}
	}
	cap := base * autopilotBackoffCap
	for i := 0; i < c.reopens && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// beginRound expires open circuits whose cooldown has passed (they turn
// half-open: the coming round's fetches are their probes) and returns
// the round's gate snapshot — nil when no circuit is open, so the
// default path stays gate-free.
func (b *breakerState) beginRound() *gateSnapshot {
	var open map[string]struct{}
	for host, c := range b.hosts {
		if c.state == circuitOpen && b.vnowMs >= c.openedMs+b.openForMs(c) {
			c.state = circuitHalfOpen
			b.stats.Probes.Add(1)
		}
		if c.state == circuitOpen {
			if open == nil {
				open = map[string]struct{}{}
			}
			open[host] = struct{}{}
		}
	}
	if open == nil {
		return nil
	}
	return &gateSnapshot{open: open, stats: b.stats}
}

// endRound folds one completed round: outcomes are sorted by (pass,
// idx) — arrival order varies with the worker count, fold order must
// not — and per-host aggregates drive the state machine. The crawl
// virtual clock advances first, by the round's mean visit duration —
// deliberately NOT a function of the worker count (a divisor of real
// parallelism would make circuit timing, and with it the emitted
// records, depend on how many workers ran), so the same seed and
// config tick the breaker's clock identically at any worker count. A
// circuit opened by this round's failures is stamped with the
// post-advance time, keeping it open for a full cooldown of crawl
// time afterwards.
func (b *breakerState) endRound(outcomes []visitOutcome) {
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].pass != outcomes[j].pass {
			return outcomes[i].pass < outcomes[j].pass
		}
		return outcomes[i].idx < outcomes[j].idx
	})
	if len(outcomes) > 0 {
		var sumMs float64
		for _, o := range outcomes {
			sumMs += o.virtualMs
		}
		b.vnowMs += sumMs / float64(len(outcomes))
	}
	for _, o := range outcomes {
		for _, h := range o.hosts {
			b.observe(h)
		}
	}
}

// observe folds one visit's accounting for one host.
func (b *breakerState) observe(h browser.HostOutcome) {
	c := b.hosts[h.Host]
	if c == nil {
		c = &circuit{}
		b.hosts[h.Host] = c
	}
	switch {
	case h.Transient > 0:
		if b.cfg.Autopilot {
			// Learn the host's inter-failure interval: the gap between
			// successive failure observations on the crawl virtual clock
			// (zero-gap observations within one round fold into a single
			// failure event, so the EWMA tracks the flap period, not the
			// round's burst size).
			if c.seenFail {
				if gap := b.vnowMs - c.lastFailMs; gap > 0 {
					if c.ifiSamples == 0 {
						c.ifiEwmaMs = gap
					} else {
						c.ifiEwmaMs = autopilotAlpha*gap + (1-autopilotAlpha)*c.ifiEwmaMs
					}
					c.ifiSamples++
				}
			}
			c.seenFail = true
			c.lastFailMs = b.vnowMs
		}
		// Failures dominate a mixed report: a host that both served and
		// reset within one visit is flapping, which is exactly what the
		// breaker is for.
		c.failures += h.Transient
		switch c.state {
		case circuitClosed:
			if c.failures >= b.thresholdFor(c) {
				c.state = circuitOpen
				c.openedMs = b.vnowMs
				b.stats.Opened.Add(1)
			}
		case circuitHalfOpen:
			// Failed probe: back to open for another cooldown (doubled
			// under autopilot — the host is still down).
			c.state = circuitOpen
			c.openedMs = b.vnowMs
			c.reopens++
			b.stats.Reopened.Add(1)
		}
	case h.OK > 0:
		if c.state == circuitHalfOpen {
			b.stats.Reclosed.Add(1)
		}
		c.state = circuitClosed
		c.failures = 0
		c.reopens = 0
	}
}

// exportCircuits returns every host circuit's full state — breaker
// position plus the autopilot's learned values — in host order, for
// the journal's lane snapshots. Pure read; never affects records.
func (b *breakerState) exportCircuits() []journal.CircuitState {
	if len(b.hosts) == 0 {
		return nil
	}
	hosts := make([]string, 0, len(b.hosts))
	for h := range b.hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	out := make([]journal.CircuitState, len(hosts))
	for i, h := range hosts {
		c := b.hosts[h]
		out[i] = journal.CircuitState{
			Host: h, State: uint8(c.state), Failures: c.failures,
			OpenedMs: c.openedMs, SeenFail: c.seenFail,
			LastFailMs: c.lastFailMs, IfiEwmaMs: c.ifiEwmaMs,
			IfiSamples: c.ifiSamples, Reopens: c.reopens,
		}
	}
	return out
}

// blocked reports whether a host's circuit is open right now (dispatch-
// time visit shedding; the per-round gate snapshot answers for fetches).
func (b *breakerState) blocked(host string) bool {
	c := b.hosts[host]
	return c != nil && c.state == circuitOpen
}

// gateSnapshot is the immutable per-round set of open circuits, shared
// read-only by every browser of the round as its browser.FetchGate.
type gateSnapshot struct {
	open   map[string]struct{}
	stats  *SchedStats
	except string // the visit's own document host (second-pass probes)
}

// Allow implements browser.FetchGate.
func (g *gateSnapshot) Allow(host string) bool {
	if host == g.except {
		return true
	}
	if _, bad := g.open[host]; bad {
		g.stats.ShedFetches.Add(1)
		return false
	}
	return true
}

// withException returns a view of the snapshot that admits one host —
// the document host of a second-pass visit, whose re-crawl doubles as
// the half-open probe for a circuit its own landing failure opened.
func (g *gateSnapshot) withException(host string) *gateSnapshot {
	if g == nil {
		return nil
	}
	if _, bad := g.open[host]; !bad {
		return g
	}
	gc := *g
	gc.except = host
	return &gc
}

// Counter is an atomic scheduler counter that optionally chains to a
// parent: adding to a per-vantage child counter also adds to the
// crawl-wide total, so SchedStats.Vantage breakdowns never drift from
// the aggregate. The zero value is an unchained counter.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Add increments the counter (and its parent chain) by n.
func (c *Counter) Add(n int64) {
	c.v.Add(n)
	if c.parent != nil {
		c.parent.Add(n)
	}
}

// Load returns the counter's current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// SchedStats accumulates scheduler counters over a crawl (or, when the
// same struct is passed to several crawls, over all of them): total
// virtual time burned by visits, circuit-breaker shed/probe activity,
// and second-pass volume. All fields are atomic so workers update them
// without coordination; they never influence records. Multi-lane
// crawls additionally keep a per-unit breakdown (Unit /
// Snapshot().Vantages), keyed by the lane's unit label — the vantage
// name for persona-free lanes (the historical per-vantage keys), or
// "vantage/persona" when the persona axis is in play: each labelled
// lane's counters chain into these totals, so the aggregate always
// equals the sum of its lanes.
type SchedStats struct {
	// VirtualMs is the summed virtual duration of every performed visit
	// (shed visits contribute nothing — that is the saving).
	VirtualMs Counter
	// Visits counts performed visits (browser constructed), including
	// first-pass attempts later superseded by the second pass.
	Visits Counter
	// ShedVisits counts whole visits shed at dispatch because the
	// landing host's circuit was open.
	ShedVisits Counter
	// ShedFetches counts individual fetches shed by the per-round gate.
	ShedFetches Counter
	// Opened / Reopened / Reclosed / Probes count circuit transitions;
	// Probes is the number of open→half-open expirations.
	Opened   Counter
	Reopened Counter
	Reclosed Counter
	Probes   Counter
	// Requeued counts visits admitted to the second pass; SecondPassKept
	// counts those whose re-crawl landed successfully.
	Requeued       Counter
	SecondPassKept Counter

	mu       sync.Mutex
	vantages map[string]*SchedStats
}

// Unit returns the labelled per-unit child counter set, created on
// first use. Labels are the scheduler's unit keys: a vantage name for
// persona-free lanes, "vantage/persona" otherwise. Child counters
// chain into this struct's totals — adding to a child adds to the
// parent — and appear in Snapshot().Vantages. The crawl scheduler
// calls this once per labelled lane; callers may also read a lane's
// counters directly mid-run.
func (s *SchedStats) Unit(label string) *SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vantages == nil {
		s.vantages = map[string]*SchedStats{}
	}
	c := s.vantages[label]
	if c == nil {
		c = &SchedStats{}
		c.VirtualMs.parent = &s.VirtualMs
		c.Visits.parent = &s.Visits
		c.ShedVisits.parent = &s.ShedVisits
		c.ShedFetches.parent = &s.ShedFetches
		c.Opened.parent = &s.Opened
		c.Reopened.parent = &s.Reopened
		c.Reclosed.parent = &s.Reclosed
		c.Probes.parent = &s.Probes
		c.Requeued.parent = &s.Requeued
		c.SecondPassKept.parent = &s.SecondPassKept
		s.vantages[label] = c
	}
	return c
}

// SchedSnapshot is a plain-value copy of SchedStats for reporting and
// bench JSON.
type SchedSnapshot struct {
	VirtualMs      int64 `json:"virtual_ms"`
	Visits         int64 `json:"visits"`
	ShedVisits     int64 `json:"shed_visits"`
	ShedFetches    int64 `json:"shed_fetches"`
	Opened         int64 `json:"circuits_opened"`
	Reopened       int64 `json:"circuits_reopened"`
	Reclosed       int64 `json:"circuits_reclosed"`
	Probes         int64 `json:"circuit_probes"`
	Requeued       int64 `json:"second_pass_requeued"`
	SecondPassKept int64 `json:"second_pass_kept"`
	// Vantages is the per-unit breakdown of the totals above, keyed by
	// unit label: the vantage name for persona-free lanes (preserving
	// the historical keys), "vantage/persona" when the persona axis is
	// in play. Absent for single-lane crawls.
	Vantages map[string]SchedSnapshot `json:"vantages,omitempty"`
}

// Snapshot returns a plain-value copy of the counters, including the
// per-vantage breakdown when one exists.
func (s *SchedStats) Snapshot() SchedSnapshot {
	snap := SchedSnapshot{
		VirtualMs:      s.VirtualMs.Load(),
		Visits:         s.Visits.Load(),
		ShedVisits:     s.ShedVisits.Load(),
		ShedFetches:    s.ShedFetches.Load(),
		Opened:         s.Opened.Load(),
		Reopened:       s.Reopened.Load(),
		Reclosed:       s.Reclosed.Load(),
		Probes:         s.Probes.Load(),
		Requeued:       s.Requeued.Load(),
		SecondPassKept: s.SecondPassKept.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vantages) > 0 {
		snap.Vantages = make(map[string]SchedSnapshot, len(s.vantages))
		for name, c := range s.vantages {
			snap.Vantages[name] = c.Snapshot()
		}
	}
	return snap
}
