// Package netsim provides the in-memory internet the reproduction crawls.
//
// The paper crawled 20,000 live sites; offline we substitute a virtual
// network fabric: an Internet is a virtual DNS (host → http.Handler) plus
// an http.RoundTripper that dispatches requests directly to the registered
// handler without touching a socket. Everything above it — the browser,
// the jar, the instrumentation extension, CookieGuard — speaks standard
// net/http, so the same code would run against the real web.
//
// The fabric also models the network-level phenomena the paper discusses:
// deterministic per-host latency (driving the page-load-time experiments
// of §7.3) and CNAME cloaking (§8, "Manipulation of script source"),
// where a first-party subdomain aliases a third-party server. Beyond the
// happy path it injects the transient faults of a real measurement crawl
// — 5xx responses, connection resets, timeouts, truncated bodies,
// tail-latency spikes, and per-host flap schedules — through a seeded
// deterministic FaultModel (SetFaultModel, SeededFaults), so resilience
// experiments reproduce bit-for-bit.
package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cookieguard/internal/contenthash"
)

// --- allocation-frugal response plumbing ---------------------------------
//
// The crawl performs hundreds of request/response exchanges per visit, the
// overwhelming majority replayed from the response cache. The helpers here
// keep that replay path nearly allocation-free: response structs and their
// header maps are pooled (reclaimed via ReleaseResponse once the browser
// has consumed the exchange), status lines and latency header values are
// memoized per distinct value, and bodies travel as *stringBody so ReadBody
// hands back the cached string without copying it.

// stringBody is an io.ReadCloser over an immutable string. ReadBody
// recognizes it and returns the string without the ReadAll round trip.
type stringBody struct {
	strings.Reader
	s      string
	pooled bool // response came from respPool; ReleaseResponse reclaims it
}

func (b *stringBody) Close() error { return nil }

func (b *stringBody) set(s string) {
	b.s = s
	b.Reader.Reset(s)
}

// respPool recycles cache-hit responses: the Response struct, its Header
// map, and the stringBody. A pooled response is handed back through
// ReleaseResponse by the single consumer of the exchange (the browser).
var respPool = sync.Pool{New: func() any {
	r := &http.Response{Header: make(http.Header, 8)}
	b := &stringBody{pooled: true}
	r.Body = b
	return r
}}

// pooledResponse returns a reset pooled response with status, headers
// copied from src (value slices shared — they are never mutated), and body.
func pooledResponse(status int, src http.Header, body string) *http.Response {
	r := respPool.Get().(*http.Response)
	sb := r.Body.(*stringBody)
	sb.set(body)
	h := r.Header
	clear(h)
	for k, vv := range src {
		h[k] = vv
	}
	r.StatusCode = status
	r.Status = statusLine(status)
	r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	r.ContentLength = int64(len(body))
	r.Request = nil
	return r
}

// ReleaseResponse returns a pooled response to the pool. It must only be
// called by the exchange's single consumer once the body and headers are
// fully consumed and never referenced again; taps must not retain
// responses past the tap callback when callers release. Non-pooled
// responses are ignored, so callers may release unconditionally.
func ReleaseResponse(resp *http.Response) {
	if resp == nil {
		return
	}
	sb, ok := resp.Body.(*stringBody)
	if !ok || !sb.pooled {
		return
	}
	resp.Request = nil
	respPool.Put(resp)
}

// statusLine memoizes "200 OK"-style status lines per code.
var statusLines sync.Map // int -> string

// respRecorder is the fabric's minimal http.ResponseWriter for handler
// dispatch. httptest's recorder snapshots (clones) the header map and
// Sprintf's a fresh status line on every Result() — recurring garbage on
// each uncacheable exchange (beacon sinks, consent endpoints), which a
// multi-persona crawl pays once per unit per sink. The fabric only needs
// the code, the header map the handler just filled, and the body, so the
// response is assembled from those directly (status lines come from the
// statusLine memo). Content-Type sniffing is deliberately absent:
// generated handlers either set their type explicitly or write no body,
// and nothing in the fabric or browser reads a sniffed type.
type respRecorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func (r *respRecorder) Header() http.Header { return r.header }

func (r *respRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *respRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *respRecorder) WriteString(s string) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.WriteString(s)
}

func statusLine(code int) string {
	if s, ok := statusLines.Load(code); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%d %s", code, http.StatusText(code))
	statusLines.Store(code, s)
	return s
}

// latencyValue memoizes the one-element header slice for a latency value.
// The slice is shared across responses and never mutated; the distinct
// latency population is bounded by the latency model's per-host spread
// (plus tail-latency factors), and the memo is capped defensively.
var (
	latencyValues     sync.Map // float64 -> []string
	latencyValuesSize atomic.Int64
)

const latencyValuesMax = 1 << 16

func latencyValue(lat float64) []string {
	if v, ok := latencyValues.Load(lat); ok {
		return v.([]string)
	}
	v := []string{strconv.FormatFloat(lat, 'f', 2, 64)}
	if latencyValuesSize.Load() < latencyValuesMax {
		if _, loaded := latencyValues.LoadOrStore(lat, v); !loaded {
			latencyValuesSize.Add(1)
		}
	}
	return v
}

// LatencyHeader carries the simulated network latency of an exchange, in
// milliseconds, back to the caller. Browsers advance their virtual clock
// by this amount per fetch.
const LatencyHeader = "X-Netsim-Latency-Ms"

// BodyHashHeader carries the stable content hash of the served body when
// a response cache is installed (SetResponseCache). It is the fabric's
// cache key for the exchange; browsers reuse it as the key of their own
// derived-artifact caches (compiled scripts, DOM templates) so a body is
// hashed once per serve, not once per consumer.
const BodyHashHeader = "X-Netsim-Body-Hash"

// Exchange is one observed request/response pair, passed to taps.
type Exchange struct {
	Request  *http.Request
	Response *http.Response
	Host     string // the host that served it (post-CNAME resolution)
}

// Tap observes every exchange on the fabric.
type Tap func(Exchange)

// LatencyModel computes the simulated latency in milliseconds for a
// request. Implementations must be deterministic for reproducibility.
type LatencyModel func(req *http.Request) float64

// ResponseCache stores served responses keyed by request, so the fabric
// can replay a prior exchange without re-running the handler. Entries
// are opaque to implementations — netsim owns their concrete type.
// artifact.Cache satisfies this interface.
type ResponseCache interface {
	GetResponse(key string) (any, bool)
	PutResponse(key string, v any)
}

// snapshot is an immutable view of the fabric's routing state. Once
// Freeze has built one, the serving path reads it through an atomic
// pointer with no lock at all; mutators rebuild it copy-on-write.
type snapshot struct {
	hosts     map[string]http.Handler
	cnames    map[string]string
	taps      []Tap
	latency   LatencyModel
	faults    FaultModel
	respCache ResponseCache
}

// Internet is the virtual network fabric. It is safe for concurrent use
// at any point, and the serving path is lock-free: generation registers
// hosts under a mutex, Freeze (explicit, or implicit on first request)
// publishes an immutable snapshot, and every request routes through the
// snapshot with a single atomic load. Mutating after the freeze remains
// legal — mutators rebuild the snapshot copy-on-write — so call Freeze
// once after bulk registration to avoid per-mutation copies.
type Internet struct {
	mu       sync.RWMutex
	hosts    map[string]http.Handler
	cnames   map[string]string
	taps     []Tap
	latency  LatencyModel
	faults   FaultModel
	cache    ResponseCache
	frozen   atomic.Pointer[snapshot]
	requests atomic.Int64
	faulted  atomic.Int64
}

// New returns an empty Internet with the default latency model.
func New() *Internet {
	i := &Internet{
		hosts:  make(map[string]http.Handler),
		cnames: make(map[string]string),
	}
	i.latency = DefaultLatency
	return i
}

// Freeze publishes the current routing state (hosts, CNAMEs, taps,
// latency model, response cache) as an immutable snapshot, making the
// serving path lock-free. Call it once generation has finished; webgen
// does so automatically. Mutations after Freeze republish the snapshot,
// so a frozen Internet never serves stale routes — the point is purely
// to take the RWMutex out of every request.
func (i *Internet) Freeze() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.refreeze()
}

// refreeze rebuilds the published snapshot; callers hold i.mu.
func (i *Internet) refreeze() {
	hosts := make(map[string]http.Handler, len(i.hosts))
	for h, hd := range i.hosts {
		hosts[h] = hd
	}
	cnames := make(map[string]string, len(i.cnames))
	for a, t := range i.cnames {
		cnames[a] = t
	}
	taps := make([]Tap, len(i.taps))
	copy(taps, i.taps)
	i.frozen.Store(&snapshot{
		hosts:     hosts,
		cnames:    cnames,
		taps:      taps,
		latency:   i.latency,
		faults:    i.faults,
		respCache: i.cache,
	})
}

// mutate runs f under the write lock and, if a snapshot has been
// published, rebuilds it so readers keep seeing current state.
func (i *Internet) mutate(f func()) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f()
	if i.frozen.Load() != nil {
		i.refreeze()
	}
}

// view returns the current routing state as an immutable snapshot. The
// common case is a single atomic load; a fabric that was never
// explicitly frozen freezes itself on first use, so the serving path
// never reads the mutable maps and stays safe against concurrent
// Register/AddCNAME calls (mutators republish the snapshot).
func (i *Internet) view() snapshot {
	if s := i.frozen.Load(); s != nil {
		return *s
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if s := i.frozen.Load(); s == nil { // racing first readers freeze once
		i.refreeze()
	}
	return *i.frozen.Load()
}

// SetResponseCache installs (or, with nil, removes) a response cache.
// With a cache installed, GET responses with status 200 are memoized by
// (host, path, query) and replayed on subsequent requests without
// invoking the handler; every served response additionally carries the
// body's content hash in BodyHashHeader. Latency accounting, taps, and
// the request counter behave identically on hits and misses, so caching
// is invisible to everything above the fabric. Only install a cache when
// every registered handler is a pure function of the request URL (true
// for the generated web's static content).
func (i *Internet) SetResponseCache(c ResponseCache) {
	i.mutate(func() { i.cache = c })
}

// DefaultLatency is a deterministic per-host latency: a base RTT derived
// from a hash of the host (8–60 ms) plus a small per-path component. Real
// third-party stacks spread across many hosts, which is what stretches the
// load-event tail in Figure 6; a per-host spread reproduces that.
func DefaultLatency(req *http.Request) float64 {
	h := fnv64(req.URL.Hostname())
	base := 8 + float64(h%53)
	p := fnv64(req.URL.Path)
	return base + float64(p%7)
}

func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SetLatencyModel replaces the latency model (nil restores the default).
func (i *Internet) SetLatencyModel(m LatencyModel) {
	if m == nil {
		m = DefaultLatency
	}
	i.mutate(func() { i.latency = m })
}

// SetFaultModel installs (or, with nil, removes) a fault model. With a
// model installed, every RoundTrip attempt first consults it and may be
// answered with an injected failure instead of the handler; see
// SeededFaults for the deterministic implementation. The model only
// applies to resolvable hosts — an unregistered host stays NXDOMAIN —
// and never interacts with the response cache: error and truncated
// deliveries bypass it, so cached and uncached crawls stay byte-identical
// under any fault schedule.
func (i *Internet) SetFaultModel(m FaultModel) {
	i.mutate(func() { i.faults = m })
}

// Register serves host with handler. The host must be a bare lowercase
// hostname without scheme or port.
func (i *Internet) Register(host string, handler http.Handler) {
	i.mutate(func() { i.hosts[strings.ToLower(host)] = handler })
}

// RegisterFunc is Register for plain functions.
func (i *Internet) RegisterFunc(host string, f func(http.ResponseWriter, *http.Request)) {
	i.Register(host, http.HandlerFunc(f))
}

// AddCNAME makes alias resolve to target's handler while requests keep the
// alias in their URL — exactly how CNAME cloaking hides a third-party
// tracker behind a first-party subdomain.
func (i *Internet) AddCNAME(alias, target string) {
	i.mutate(func() { i.cnames[strings.ToLower(alias)] = strings.ToLower(target) })
}

// CanonicalHost follows CNAME records from host to the host that actually
// serves it. It is the hook a DNS-level cloaking defense would use.
func (i *Internet) CanonicalHost(host string) string {
	return canonicalIn(i.view().cnames, strings.ToLower(host))
}

func canonicalIn(cnames map[string]string, host string) string {
	for n := 0; n < 8; n++ { // bounded chain; cycles terminate
		t, ok := cnames[host]
		if !ok {
			return host
		}
		host = t
	}
	return host
}

// IsCloaked reports whether host reaches its server through a CNAME.
func (i *Internet) IsCloaked(host string) bool {
	return i.CanonicalHost(host) != strings.ToLower(host)
}

// Tap registers a tap on all exchanges.
func (i *Internet) Tap(t Tap) {
	i.mutate(func() { i.taps = append(i.taps, t) })
}

// Requests returns the total number of exchanges served.
func (i *Internet) Requests() int64 { return i.requests.Load() }

// Faults returns the total number of injected faults (all kinds).
func (i *Internet) Faults() int64 { return i.faulted.Load() }

// Hosts returns the registered hostnames (sorted order not guaranteed).
func (i *Internet) Hosts() []string {
	hosts := i.view().hosts
	out := make([]string, 0, len(hosts))
	for h := range hosts {
		out = append(out, h)
	}
	return out
}

// cachedResponse is one memoized exchange: everything needed to replay
// it except the per-request latency header, which is recomputed so the
// virtual clock sees identical charges on hits and misses.
type cachedResponse struct {
	status int
	header http.Header // includes BodyHashHeader; never mutated after Put
	body   string
}

// cacheKey identifies a request for response memoization. The key uses
// the *requested* host (pre-CNAME): the serving handler observes the
// original Host header, so a cloaked alias and its target are distinct
// cache entries even though one handler serves both.
func cacheKey(u *url.URL) string {
	return u.Host + "\x00" + u.Path + "\x00" + u.RawQuery
}

// respond finalizes a response for delivery: per-request headers, the
// request back-pointer, accounting, and taps.
func (i *Internet) respond(resp *http.Response, req *http.Request, lat float64, taps []Tap, servedBy string) *http.Response {
	resp.Request = req
	// The latency value slice is memoized and shared across responses;
	// Header.Get reads it exactly as a Set one (the key is canonical).
	resp.Header[LatencyHeader] = latencyValue(lat)
	i.requests.Add(1)
	ex := Exchange{Request: req, Response: resp, Host: servedBy}
	for _, t := range taps {
		t(ex)
	}
	return resp
}

// RoundTrip implements http.RoundTripper against the fabric, observed
// from the implicit default vantage (the installed latency and fault
// models). Internet.From builds vantage views that route through the
// same serving path with per-vantage models.
func (i *Internet) RoundTrip(req *http.Request) (*http.Response, error) {
	v := i.view()
	return i.roundTrip(req, &v, v.latency, v.faults)
}

// roundTrip is the shared serving path: route, inject faults, replay or
// run the handler. latency and faults are the effective models for this
// request — the snapshot's own for a direct RoundTrip, a vantage's
// overrides for a VantageView.
func (i *Internet) roundTrip(req *http.Request, v *snapshot, latency LatencyModel, faults FaultModel) (*http.Response, error) {
	host := strings.ToLower(req.URL.Hostname())
	if host == "" {
		return nil, fmt.Errorf("netsim: request %q has no host", req.URL)
	}
	servedBy := canonicalIn(v.cnames, host)
	handler, ok := v.hosts[servedBy]
	if !ok {
		return nil, &HostNotFoundError{Host: host}
	}
	lat := latency(req)

	// Fault injection: consult the model before the handler or cache.
	// Connection-level faults return an error carrying the virtual time
	// the attempt burned; a synthesized 5xx never runs the handler; a
	// tail-latency spike only inflates the charged latency; truncation is
	// applied to the delivered copy after normal serving (below), so the
	// response cache only ever stores intact exchanges.
	var fd FaultDecision
	if faults != nil {
		fd = faults(req)
	}
	switch fd.Kind {
	case FaultConnReset:
		i.faulted.Add(1)
		if fd.LatencyMs > 0 {
			lat = fd.LatencyMs
		}
		return nil, &FaultError{Kind: FaultConnReset, Host: host, LatencyMs: lat}
	case FaultTimeout:
		i.faulted.Add(1)
		stall := fd.LatencyMs
		if stall <= 0 {
			stall = lat
		}
		return nil, &FaultError{Kind: FaultTimeout, Host: host, LatencyMs: stall}
	case FaultServerError:
		i.faulted.Add(1)
		status := fd.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		body := errorBody(status)
		var resp *http.Response
		if len(v.taps) == 0 {
			resp = pooledResponse(status, nil, body)
		} else {
			resp = &http.Response{
				StatusCode:    status,
				Status:        statusLine(status),
				Proto:         "HTTP/1.1",
				ProtoMajor:    1,
				ProtoMinor:    1,
				Header:        http.Header{},
				Body:          io.NopCloser(strings.NewReader(body)),
				ContentLength: int64(len(body)),
			}
		}
		return i.respond(resp, req, lat, v.taps, servedBy), nil
	case FaultTailLatency:
		i.faulted.Add(1)
		factor := fd.Factor
		if factor <= 0 {
			factor = 10
		}
		lat *= factor
	case FaultTruncate:
		i.faulted.Add(1)
	}

	// Replay a memoized exchange without touching the handler. The
	// stored header is shared across hits, so it is cloned before the
	// per-request latency header is added.
	var key string
	cacheable := v.respCache != nil && req.Method == http.MethodGet
	if cacheable {
		key = cacheKey(req.URL)
		if e, ok := v.respCache.GetResponse(key); ok {
			cr := e.(*cachedResponse)
			var resp *http.Response
			if len(v.taps) == 0 && fd.Kind != FaultTruncate {
				// Replay through the pool: header entries are copied into
				// the pooled map (value slices shared, never mutated) and
				// the browser returns the response via ReleaseResponse. A
				// registered tap could retain the exchange, so taps force
				// the historical fresh-allocation path; truncation rewrites
				// body and headers, so it does too.
				resp = pooledResponse(cr.status, cr.header, cr.body)
			} else {
				resp = &http.Response{
					StatusCode:    cr.status,
					Status:        statusLine(cr.status),
					Proto:         "HTTP/1.1",
					ProtoMajor:    1,
					ProtoMinor:    1,
					Header:        cr.header.Clone(),
					Body:          io.NopCloser(strings.NewReader(cr.body)),
					ContentLength: int64(len(cr.body)),
				}
				if fd.Kind == FaultTruncate {
					applyTruncation(resp, cr.body, fd)
				}
			}
			return i.respond(resp, req, lat, v.taps, servedBy), nil
		}
	}

	rec := &respRecorder{header: make(http.Header, 4)}
	// The handler sees the original Host (cloaked requests carry the
	// alias), matching how HTTP works over a CNAME. A shallow copy is
	// enough: it shares URL, Header and context with the caller's
	// request, and no handler on the fabric mutates its request — they
	// read the path and write only the response — so only the copy's own
	// Host and Body fields are ever set.
	inner := new(http.Request)
	*inner = *req
	inner.Host = req.URL.Host
	if inner.Body == nil {
		inner.Body = http.NoBody
	}
	handler.ServeHTTP(rec, inner)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}

	body := rec.body.String()
	// Deliver the body as a *stringBody so ReadBody returns it without a
	// second copy (rec.body.String() above is the only materialization).
	sb := &stringBody{}
	sb.set(body)
	resp := &http.Response{
		StatusCode:    rec.code,
		Status:        statusLine(rec.code),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          sb,
		ContentLength: int64(len(body)),
	}
	if cacheable && rec.code == http.StatusOK {
		// Memoize 200s only: error pages are cheap and beacon sinks
		// (204, unique query strings) would grow the cache unboundedly.
		// The cache stores the intact exchange even when this delivery is
		// truncated — the fault belongs to the attempt, not the content.
		hdr := resp.Header.Clone()
		hdr.Set(BodyHashHeader, contenthash.Sum(body))
		v.respCache.PutResponse(key, &cachedResponse{status: rec.code, header: hdr, body: body})
		resp.Header.Set(BodyHashHeader, hdr.Get(BodyHashHeader))
	}
	if fd.Kind == FaultTruncate {
		applyTruncation(resp, body, fd)
	}
	return i.respond(resp, req, lat, v.taps, servedBy), nil
}

// HostNotFoundError is the fabric's NXDOMAIN.
type HostNotFoundError struct{ Host string }

func (e *HostNotFoundError) Error() string {
	return "netsim: no such host: " + e.Host
}

// Client returns an *http.Client that uses the fabric as its transport.
func (i *Internet) Client() *http.Client {
	return &http.Client{Transport: i}
}

// Latency extracts the simulated latency (ms) recorded on a response,
// returning 0 when absent.
func Latency(resp *http.Response) float64 {
	v := resp.Header.Get(LatencyHeader)
	if v == "" {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0
	}
	return f
}

// errorBody memoizes the "<status text>\n" body of synthesized errors.
var errorBodies sync.Map // int -> string

func errorBody(status int) string {
	if s, ok := errorBodies.Load(status); ok {
		return s.(string)
	}
	s := http.StatusText(status) + "\n"
	errorBodies.Store(status, s)
	return s
}

// ReadBody fully reads and closes a response body. Bodies served by the
// fabric are *stringBody and return their backing string without copying;
// anything else takes the io.ReadAll path.
func ReadBody(resp *http.Response) (string, error) {
	if sb, ok := resp.Body.(*stringBody); ok && sb.Len() == len(sb.s) {
		sb.Reader.Reset("") // consumed; a second read sees EOF, as before
		return sb.s, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// ServeHTTP lets an Internet be mounted behind a real net/http server
// (cmd/webserve): requests are routed by Host header to the registered
// handler, so a real browser pointed at the listener with appropriate
// /etc/hosts entries sees the synthetic web.
func (i *Internet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if idx := strings.IndexByte(host, ':'); idx >= 0 {
		host = host[:idx]
	}
	v := i.view()
	handler, ok := v.hosts[canonicalIn(v.cnames, strings.ToLower(host))]
	if !ok {
		http.Error(w, "netsim: no such host: "+host, http.StatusBadGateway)
		return
	}
	handler.ServeHTTP(w, r)
}
