package browser

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"

	"cookieguard/internal/artifact"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/netsim"
	"cookieguard/internal/stats"
	"cookieguard/internal/urlutil"
	"cookieguard/internal/vclock"
)

// Options configures a Browser.
type Options struct {
	// Internet is what the browser fetches through (required): the
	// network fabric itself (*netsim.Internet), or a vantage view of it
	// (Internet.From(vantage)) that fetches the same frozen web with a
	// vantage point's latency and fault models.
	Internet netsim.Fetcher
	// Clock is the virtual time source; a fresh one is created if nil.
	Clock *vclock.Clock
	// CookieMiddleware installs cookie layers over the direct cookie
	// API, innermost first. The instrumentation extension and
	// CookieGuard install themselves here, each in one call.
	CookieMiddleware []CookieMiddleware
	// DropAsyncAttribution models the stack-trace loss in asynchronous
	// callbacks discussed in paper §8: when set, deferred callbacks
	// execute with no script attribution.
	DropAsyncAttribution bool
	// Seed drives the browser-side PRNG (rand_id values, interaction
	// choices).
	Seed uint64
	// Artifacts, when set, is the shared source-keyed cache for
	// compiled scripts and DOM templates: identical sources are parsed
	// once per cache residency instead of once per page. The cache is
	// typically shared across every browser of a crawl. Caching is
	// semantically invisible — simulated parse/latency costs are still
	// charged to the virtual clock, and a cached visit produces records
	// byte-identical to an uncached one.
	Artifacts *artifact.Cache
	// Retry bounds transient-fault retries per fetch with seeded
	// jittered backoff on the virtual clock. The zero value performs a
	// single attempt, preserving the historical behaviour byte for byte.
	Retry RetryPolicy
	// Gate, when set, vets every fetch before its first attempt: a host
	// the gate rejects is shed with FailCircuitOpen — no attempts, no
	// virtual time. The crawler's circuit breaker installs its per-round
	// open-circuit snapshot here. Nil (the default) admits everything.
	Gate FetchGate
	// AttemptBase offsets the attempt numbers stamped on outbound
	// fetches (netsim.Stamp.Attempt): attempt n is stamped as
	// AttemptBase+n, so a second crawl pass draws fresh per-attempt
	// fault decisions instead of replaying the first pass's failures.
	// Zero (the default) stamps attempts 1, 2, ….
	AttemptBase int
	// TrackHosts enables per-host fetch-outcome accounting for the
	// crawler's circuit breaker (HostReport). Off by default — the
	// accounting map costs a few allocations per visit.
	TrackHosts bool
	// Pooling recycles per-visit state — pages, DOM arenas, interpreters,
	// the cookie jar, the outbound request and its URL, network
	// exchanges — through pools. It requires the explicit Release()
	// lifecycle: the owner of the browser must call Release() once all
	// data derived from the visit has been copied out, and must touch
	// nothing of the visit afterwards. Off by default; pooled and unpooled visits produce
	// byte-identical results.
	Pooling bool
}

// Browser is a virtual browser instance: one cookie jar, one clock, one
// network identity. Create one per crawled site visit for isolation, or
// reuse across navigations to model a continuing session.
type Browser struct {
	opts     Options
	jar      *cookiejar.Jar
	clock    *vclock.Clock
	api      CookieAPI
	rng      *stats.Rand
	retryRng *stats.Rand // backoff jitter; separate stream so retries
	// never perturb the interaction/rand_id draws of the page itself

	// hostOutcomes accumulates per-host fetch accounting for the
	// crawler's circuit breaker when Options.TrackHosts is set.
	hostOutcomes map[string]*HostOutcome

	// pages tracks every page this browser created (landing pages,
	// navigations, frames) when pooling is on, for Release.
	pages []*Page

	// req/url are the reusable outbound request and its URL: a browser
	// performs one fetch at a time, and the fabric never retains the
	// request past Fetch (responses released back to its pool drop their
	// back-pointer), so one request object serves every fetch. url holds
	// canonical URLs (urlutil.ParseCanonical); the jar copies nothing but
	// substrings out of it.
	req http.Request
	url url.URL
}

// New constructs a Browser.
func New(opts Options) (*Browser, error) {
	if opts.Internet == nil {
		return nil, errors.New("browser: Options.Internet is required")
	}
	if opts.Clock == nil {
		opts.Clock = vclock.New()
	}
	b := &Browser{
		opts:     opts,
		clock:    opts.Clock,
		rng:      stats.NewRand(opts.Seed ^ 0xb5297a4d),
		retryRng: stats.NewRand(opts.Seed ^ 0x27d4eb2f),
	}
	if opts.Pooling {
		b.jar = cookiejar.Acquire(opts.Clock)
	} else {
		b.jar = cookiejar.New(opts.Clock)
	}
	if opts.TrackHosts {
		b.hostOutcomes = make(map[string]*HostOutcome, 16)
	}
	b.req = http.Request{
		Method:     http.MethodGet,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
	}
	b.api = &directCookieAPI{jar: b.jar}
	for _, mw := range opts.CookieMiddleware {
		b.api = mw(b, b.api)
	}
	return b, nil
}

// Jar exposes the browser's cookie jar (observers, assertions).
func (b *Browser) Jar() *cookiejar.Jar { return b.jar }

// Clock exposes the browser's virtual clock.
func (b *Browser) Clock() *vclock.Clock { return b.clock }

// Visit loads the page at url, executing its scripts to completion
// (including injected ones and deferred callbacks), and returns the page.
// On a fatal load failure the page is still returned alongside the
// error: it carries the request records of the failed load (the document
// fetch, its retries, its failure class), so callers can account the
// failure instead of losing its trace.
func (b *Browser) Visit(url string) (*Page, error) {
	p := newPage(b, url, true)
	if err := p.load(); err != nil {
		return p, fmt.Errorf("browser: visit %s: %w", url, err)
	}
	return p, nil
}

// fetch performs one network exchange, advancing the clock by the
// simulated latency (charged for failed attempts too), and retries
// transient failures within Options.Retry's attempt budget with jittered
// backoff on the virtual clock. It attaches the jar's cookies to the
// request (as the network stack does) and, for the accepted response
// only, stores any Set-Cookie headers back. The result carries the body,
// the final status, the retry count, and the terminal failure
// classification.
func (b *Browser) fetch(url string) fetchResult {
	maxAttempts := b.opts.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var res fetchResult
	for attempt := 1; ; attempt++ {
		res = b.fetchOnce(url, attempt)
		res.retries = attempt - 1
		if res.failure == FailNone || attempt >= maxAttempts || !retryable(res.failure, res.status) {
			b.accountHost(url, res)
			return res
		}
		b.clock.AdvanceMillis(b.opts.Retry.backoffMs(attempt, b.retryRng))
	}
}

// accountHost folds a fetch's terminal outcome into the per-host
// accounting the crawler's circuit breaker consumes (TrackHosts only).
// A completed exchange of any status counts as contact — the host is
// up; only transient network classes count against it. Shed fetches
// (circuit already open) carry no new information and are skipped.
func (b *Browser) accountHost(rawURL string, res fetchResult) {
	if b.hostOutcomes == nil {
		return
	}
	transient := res.failure.Transient()
	ok := res.failure == FailNone || res.failure == FailHTTP
	if !transient && !ok {
		return
	}
	host := urlutil.Hostname(rawURL)
	if host == "" {
		return
	}
	o := b.hostOutcomes[host]
	if o == nil {
		o = &HostOutcome{Host: host}
		b.hostOutcomes[host] = o
	}
	if transient {
		o.Transient++
	} else {
		o.OK++
	}
}

// HostReport returns the visit's per-host fetch accounting in host
// order (deterministic for the breaker's fold), nil unless
// Options.TrackHosts was set.
func (b *Browser) HostReport() []HostOutcome {
	if len(b.hostOutcomes) == 0 {
		return nil
	}
	out := make([]HostOutcome, 0, len(b.hostOutcomes))
	for _, o := range b.hostOutcomes {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// fetchOnce performs a single attempt, stamped with the attempt number
// and the virtual time so the fault model can draw per-attempt
// decisions and follow flap schedules.
//
// Requests carry no Cookie header: nothing in the simulated web reads
// one, so the jar renders cookies for scripts only. With pooling on, the
// request object and, for a canonical URL, the parsed URL are owned by
// the browser and reused across fetches: a browser performs one exchange
// at a time, and under the pooling contract nothing retains the exchange
// past its round trip. Without pooling every fetch parses its URL and
// builds a fresh request. Options.Internet is called directly either way —
// the fabric never redirects, so http.Client's redirect machinery (and
// its per-request bookkeeping allocations) adds nothing; transport errors
// are wrapped in *url.Error exactly as http.Client would, keeping
// recorded error strings byte-identical.
func (b *Browser) fetchOnce(rawURL string, attempt int) fetchResult {
	var u *url.URL
	if b.opts.Pooling && urlutil.ParseCanonical(&b.url, rawURL) {
		u = &b.url
	} else {
		var err error
		if u, err = url.Parse(rawURL); err != nil {
			return fetchResult{failure: FailInternal, err: err}
		}
	}
	if b.opts.Gate != nil && !b.opts.Gate.Allow(u.Hostname()) {
		// Shed: the host's circuit is open. No attempt is made and no
		// virtual time is charged — shedding is what makes the breaker
		// cheaper than burning the retry budget against a downed host.
		return fetchResult{failure: FailCircuitOpen, err: ErrCircuitOpen}
	}
	var req *http.Request
	if b.opts.Pooling {
		req = &b.req
		req.URL = u
	} else {
		req = &http.Request{
			Method:     http.MethodGet,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
		}
	}
	resp, err := b.opts.Internet.Fetch(req, netsim.Stamp{Attempt: b.opts.AttemptBase + attempt, VClockMs: b.clock.UnixMillis()})
	if err != nil {
		err = &url.Error{Op: "Get", URL: u.String(), Err: err}
		var fe *netsim.FaultError
		if errors.As(err, &fe) {
			// Failed attempts burn virtual time like successful ones.
			b.clock.AdvanceMillis(fe.LatencyMs)
		}
		return fetchResult{failure: classifyFetchError(err), err: err}
	}
	b.clock.AdvanceMillis(netsim.Latency(resp))
	body, err := netsim.ReadBody(resp)
	if err != nil {
		return fetchResult{status: resp.StatusCode, failure: classifyFetchError(err), err: err}
	}
	for _, sc := range resp.Header.Values("Set-Cookie") {
		b.jar.SetFromHeader(u, sc)
	}
	res := fetchResult{body: body, status: resp.StatusCode}
	// Only 5xx classifies as a fetch failure here: a 4xx is a completed
	// exchange (a 404'd pixel still "loaded", as in Chrome's
	// loadingFinished). Consumers that require the content — documents
	// and scripts — additionally treat any >= 400 status as fatal.
	if resp.StatusCode >= 500 {
		res.failure = FailHTTP
	}
	if b.opts.Pooling {
		// The exchange is fully consumed (latency, body, cookies);
		// hand a pooled response back to the fabric.
		netsim.ReleaseResponse(resp)
	}
	return res
}
