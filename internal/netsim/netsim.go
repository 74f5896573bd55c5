// Package netsim provides the in-memory internet the reproduction crawls.
//
// The paper crawled 20,000 live sites; offline we substitute a virtual
// network fabric: an Internet is a virtual DNS (host → http.Handler) plus
// a Fetch method that answers requests without touching a socket. A host
// registered with a route table (Routes, the generated web's static
// responses) is answered from the table in place: the delivered body is
// the registered string itself. Any other handler runs against a pooled
// recorder. Everything above the fabric — the browser, the jar, the
// instrumentation extension, CookieGuard — speaks standard net/http
// requests and responses, so the same code would run against the
// real web; RoundTrip adapts the fabric to http.RoundTripper for
// http.Client and other net/http callers.
//
// A fetch carries a Stamp beside the request: the 1-based retry attempt
// and the requester's virtual time, which the fault model reads. They are
// typed arguments, not request headers, so stamping a fetch allocates
// nothing.
//
// Handlers follow net/http's own contract: a handler must not keep the
// request or the http.ResponseWriter after ServeHTTP returns. The fabric
// recycles both (and the response it delivers, once the consumer calls
// ReleaseResponse) across exchanges.
//
// The fabric also models the network-level phenomena the paper discusses:
// deterministic per-host latency (DefaultLatency, or RegionLatency from
// a named Vantage; it drives the page-load-time experiments of §7.3) and CNAME cloaking (§8, "Manipulation of script source"),
// where a first-party subdomain aliases a third-party server. Beyond the
// happy path it injects the transient faults of a real measurement crawl
// — 5xx responses, connection resets, timeouts, truncated bodies,
// tail-latency spikes, and per-host flap schedules — through a seeded
// deterministic FaultModel (SeededFaults), so resilience experiments
// reproduce bit-for-bit. A crawl draws its faults per vantage
// (Vantage.Faults, served by Internet.From); the fabric itself injects
// none unless a test scripts a model on it with SetFaultModel.
package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// --- allocation-frugal response plumbing ---------------------------------
//
// The crawl performs hundreds of request/response exchanges per visit,
// nearly all of them answered from route tables. The helpers here keep
// that path allocation-free. Response structs and their header maps are
// pooled (reclaimed via ReleaseResponse once the browser has consumed
// the exchange), and so are a handler's recorder and its copy of the
// request. Status lines and latency header values are memoized per
// distinct value, and bodies travel as *stringBody so ReadBody hands back
// the string without copying it.

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

// respPool recycles delivered responses: the Response struct, its Header
// map, and the stringBody. A pooled response is handed back through
// ReleaseResponse by the single consumer of the exchange (the browser).
var respPool = sync.Pool{New: func() any {
	r := &http.Response{Header: make(http.Header, 8)}
	b := &stringBody{pooled: true}
	r.Body = b
	return r
}}

// newResponse returns the response to one exchange, with status and body
// and an empty header for the caller to fill. Without truncation it comes
// from respPool and its consumer hands it back through ReleaseResponse;
// truncation rewrites the body (applyTruncation), so a truncated delivery
// gets a fresh response.
func newResponse(status int, body string, fd FaultDecision) *http.Response {
	if fd.Kind == FaultTruncate {
		sb := &stringBody{}
		sb.set(body)
		return &http.Response{
			StatusCode:    status,
			Status:        statusLine(status),
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header, 4),
			Body:          sb,
			ContentLength: int64(len(body)),
		}
	}
	r := respPool.Get().(*http.Response)
	r.Body.(*stringBody).set(body)
	clear(r.Header)
	r.StatusCode = status
	r.Status = statusLine(status)
	r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	r.ContentLength = int64(len(body))
	r.Request = nil
	return r
}

// ReleaseResponse returns a pooled response to the pool. It must only be
// called by the exchange's single consumer once the body and headers are
// fully consumed and never referenced again. Non-pooled responses (a
// truncated delivery's) are ignored, so callers may release
// unconditionally.
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
// dispatch (hosts registered with a handler other than Routes: the
// examples' and tests' hand-written webs). httptest's recorder snapshots
// (clones) the header map and Sprintf's a fresh status line on every
// Result(). The fabric only needs the code, the header map the handler
// just filled, and the body, so the response is assembled from those
// directly (status lines come from the statusLine memo). Content-Type
// sniffing is deliberately absent: nothing in the fabric or browser
// reads a sniffed type.
//
// Recorders are pooled: once the response is built from one (its header
// entries copied, its body materialized as a string), it is reset and
// reused. Value slices a handler put in the header are shared with the
// delivered response, never written to.
type respRecorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

// maxPooledBody bounds the body buffer a recycled recorder keeps, so one
// large response does not pin its buffer in the pool.
const maxPooledBody = 64 << 10

// recPool recycles handler recorders and reqPool the handler's copy of
// the request. Both go back as soon as the response is built; a handler
// that kept either past ServeHTTP would see them reused.
var (
	recPool = sync.Pool{New: func() any { return &respRecorder{header: make(http.Header, 4)} }}
	reqPool = sync.Pool{New: func() any { return new(http.Request) }}
)

// release resets the recorder and returns it to recPool.
func (r *respRecorder) release() {
	if r.body.Cap() > maxPooledBody {
		return
	}
	r.code = 0
	clear(r.header)
	r.body.Reset()
	recPool.Put(r)
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

// LatencyModel computes the simulated latency in milliseconds for a
// request. Implementations must be deterministic for reproducibility.
type LatencyModel func(req *http.Request) float64

// Route is one response of a host's route table. The fabric serves it in
// place: the delivered body is Body itself, not a copy, and the header
// values are the route's own slices. A route must not be written to once
// registered.
type Route struct {
	// Status is the response's status code. A route of 400 or more
	// answers as http.Error does: Content-Type text/plain with
	// X-Content-Type-Options nosniff, and Body, or the status text and a
	// newline when Body is empty. ContentType is then not sent.
	Status int
	// ContentType is the Content-Type value, shared by every response
	// that sends it; nil sends none.
	ContentType []string
	// SetCookie holds the Set-Cookie values, in order.
	SetCookie []string
	Body      string
}

// Header values of error routes, as http.Error sets them. Each has
// capacity 1, so an append downstream copies instead of writing into the
// shared array.
var (
	textPlain = []string{"text/plain; charset=utf-8"}
	noSniff   = []string{"nosniff"}
)

// body returns the route's body: Body, or the memoized status text of an
// error route without one.
func (r *Route) body() string {
	if r.Body == "" && r.Status >= 400 {
		return errorBody(r.Status)
	}
	return r.Body
}

// writeHeader sets the route's headers in h, sharing its value slices.
// Set-Cookie is capped at its length for the same reason as textPlain.
func (r *Route) writeHeader(h http.Header) {
	if n := len(r.SetCookie); n > 0 {
		h["Set-Cookie"] = r.SetCookie[:n:n]
	}
	if r.Status >= 400 {
		h["Content-Type"] = textPlain
		h["X-Content-Type-Options"] = noSniff
	} else if r.ContentType != nil {
		h["Content-Type"] = r.ContentType
	}
}

// Routes is a host's route table: the route of each URL path, and
// Fallback for every other path. Query, method and request headers are
// not read. Register a table as the host's handler: Fetch answers from
// it without a handler round trip, and ServeHTTP (a real server,
// cmd/webserve) writes the same status, headers and body.
type Routes struct {
	Paths    map[string]Route
	Fallback Route
}

func (rt *Routes) route(path string) Route {
	if r, ok := rt.Paths[path]; ok {
		return r
	}
	return rt.Fallback
}

// ServeHTTP writes the route of r's path to w.
func (rt *Routes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := rt.route(r.URL.Path)
	h := w.Header()
	if route.Status >= 400 {
		delete(h, "Content-Length") // as http.Error does
	}
	route.writeHeader(h)
	if route.Status != http.StatusOK {
		w.WriteHeader(route.Status)
	}
	io.WriteString(w, route.body())
}

// Fetcher serves stamped request attempts: the fabric seen from some
// vantage point. *Internet (the default vantage) and *VantageView
// implement it; the browser fetches through one. The request is the
// caller's, which may reuse it once Fetch returns.
type Fetcher interface {
	Fetch(req *http.Request, s Stamp) (*http.Response, error)
}

// snapshot is an immutable view of the fabric's routing state. Once
// Freeze has built one, the serving path reads it through an atomic
// pointer with no lock at all; mutators rebuild it copy-on-write.
type snapshot struct {
	hosts  map[string]http.Handler
	cnames map[string]string
	faults FaultModel
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
	faults   FaultModel
	frozen   atomic.Pointer[snapshot]
	requests atomic.Int64
	faulted  atomic.Int64
}

// New returns an empty Internet.
func New() *Internet {
	return &Internet{
		hosts:  make(map[string]http.Handler),
		cnames: make(map[string]string),
	}
}

// Freeze publishes the current routing state (hosts, CNAMEs, fault
// model) as an immutable snapshot, making the serving path lock-free.
// Call it once generation has finished; webgen does so automatically.
// Mutations after Freeze republish the snapshot, so a frozen Internet
// never serves stale routes — the point is purely to take the RWMutex
// out of every request.
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
	i.frozen.Store(&snapshot{hosts: hosts, cnames: cnames, faults: i.faults})
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

// SetFaultModel installs (or, with nil, removes) a fault model on the
// fabric's own Fetch. It is the seam tests use to script faults,
// including hand-written models no FaultConfig can express; nothing
// outside tests calls it, and vantage views (From) never read it. With
// a model installed, every Internet.Fetch attempt first consults it and
// may be answered with an injected failure instead of the handler; see
// SeededFaults for the deterministic implementation. The model only
// applies to resolvable hosts — an unregistered host stays NXDOMAIN.
func (i *Internet) SetFaultModel(m FaultModel) {
	i.mutate(func() { i.faults = m })
}

// Register serves host with handler, which may be a route table
// (*Routes). The host must be a bare lowercase hostname without scheme
// or port.
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

// Requests returns the total number of exchanges served.
func (i *Internet) Requests() int64 { return i.requests.Load() }

// Faults returns the total number of injected faults (all kinds).
func (i *Internet) Faults() int64 { return i.faulted.Load() }

// deliver finishes and accounts the response to one exchange, whose
// status, header and body were set by whatever answered it — a
// synthesized fault, a route or a handler: it cuts a truncated delivery
// at its fault and stamps the latency.
func (i *Internet) deliver(req *http.Request, resp *http.Response, body string, lat float64, fd FaultDecision) *http.Response {
	if fd.Kind == FaultTruncate {
		applyTruncation(resp, body, fd)
	}
	resp.Request = req
	// The latency value slice is memoized and shared across responses;
	// Header.Get reads it exactly as a Set one (the key is canonical).
	resp.Header[LatencyHeader] = latencyValue(lat)
	i.requests.Add(1)
	return resp
}

// Fetch serves one request attempt from the implicit default vantage
// (DefaultLatency and the fault model SetFaultModel installed, if any);
// s stamps the attempt for the fault model. Internet.From builds vantage
// views that serve through the same path with per-vantage models.
func (i *Internet) Fetch(req *http.Request, s Stamp) (*http.Response, error) {
	v := i.view()
	return i.fetch(req, s, &v, DefaultLatency, v.faults)
}

// RoundTrip adapts the fabric to http.RoundTripper (Client, tests): it is
// Fetch with the zero Stamp, a first attempt at virtual time zero.
func (i *Internet) RoundTrip(req *http.Request) (*http.Response, error) {
	return i.Fetch(req, Stamp{})
}

// fetch is the shared serving path: resolve, inject faults, answer from
// the host's route table or run its handler. latency and faults are the
// effective models for this request — the defaults for Internet.Fetch, a
// vantage's for a VantageView.
func (i *Internet) fetch(req *http.Request, s Stamp, v *snapshot, latency LatencyModel, faults FaultModel) (*http.Response, error) {
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

	// Fault injection: consult the model before serving.
	// Connection-level faults return an error carrying the virtual time
	// the attempt burned; a synthesized 5xx never runs the handler; a
	// tail-latency spike only inflates the charged latency; truncation is
	// applied to the delivered response after normal serving (below).
	var fd FaultDecision
	if faults != nil {
		fd = faults(req, s)
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
		return i.deliver(req, newResponse(status, body, fd), body, lat, fd), nil
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

	if rt, ok := handler.(*Routes); ok {
		route := rt.route(req.URL.Path)
		body := route.body()
		resp := newResponse(route.Status, body, fd)
		route.writeHeader(resp.Header)
		return i.deliver(req, resp, body, lat, fd), nil
	}

	// The handler sees the original Host (cloaked requests carry the
	// alias), matching how HTTP works over a CNAME. A shallow copy is
	// enough: it shares URL, Header and context with the caller's
	// request, and no handler on the fabric mutates its request — they
	// read the path and write only the response — so only the copy's own
	// Host and Body fields are ever set.
	rec := recPool.Get().(*respRecorder)
	inner := reqPool.Get().(*http.Request)
	*inner = *req
	inner.Host = req.URL.Host
	if inner.Body == nil {
		inner.Body = http.NoBody
	}
	handler.ServeHTTP(rec, inner)
	*inner = http.Request{}
	reqPool.Put(inner)

	status := rec.code
	if status == 0 {
		status = http.StatusOK
	}
	// The one materialization of the body; ReadBody returns this string.
	body := rec.body.String()
	resp := newResponse(status, body, fd)
	for k, vv := range rec.header {
		resp.Header[k] = vv // the handler's slices; clear(rec.header) leaves them be
	}
	rec.release()
	return i.deliver(req, resp, body, lat, fd), nil
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
// handler or route table, so a real browser pointed at the listener with
// appropriate /etc/hosts entries sees the synthetic web.
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
