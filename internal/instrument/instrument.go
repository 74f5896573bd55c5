// Package instrument is the measurement extension of the paper (§4.1) in
// Go form: it records every document.cookie and CookieStore write and
// delete with script-level attribution, counts each script's reads per
// API, captures HTTP Set-Cookie headers, and logs outbound requests —
// producing one VisitLog per crawled site for the analysis pipeline.
//
// Recorder.Middleware installs it on a browser in one call, as a
// browser.CookieMiddleware: it wraps the native cookie APIs, as the
// extension does with Object.defineProperty, and registers a jar observer
// for server-set cookies (webRequest.onHeadersReceived).
package instrument

import (
	"slices"
	"sync"

	"cookieguard/internal/browser"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/publicsuffix"
	"cookieguard/internal/urlutil"
)

// Op is the kind of a recorded cookie operation.
type Op string

// Cookie operation kinds.
const (
	OpRead    Op = "read"    // document.cookie getter / cookieStore.get, counted
	OpWrite   Op = "write"   // assignment / cookieStore.set
	OpDelete  Op = "delete"  // expired write (see CookieEvent)
	OpHTTPSet Op = "httpset" // Set-Cookie response header
)

// API distinguishes the cookie interface used.
type API string

// Cookie API surfaces.
const (
	APIDocument    API = "document.cookie"
	APICookieStore API = "cookieStore"
	APIHTTP        API = "http"
)

// CookieEvent is one recorded cookie operation.
//
// A write through either API, a document.cookie assignment or the line
// a cookieStore.set call renders to (browser.RecordAssignment), is
// parsed by cookiejar.ParseAssignment, the parser the jar itself uses,
// and recorded with the name, value and attributes that parse reads. It
// is recorded as OpDelete exactly when the jar treats it as a deletion:
// when Assignment.Expired holds on the browser's clock (a last valid
// Max-Age of zero or less, or, without a valid Max-Age, an Expires date
// not after now). A line with no name is recorded as an OpWrite with no
// name or attributes; the jar rejects it.
//
// Reads are counted, not recorded per call: a visit holds one OpRead
// entry per (ScriptURL, Inline, MainFrame, API), at that key's first
// read, with no name or value, which is all the analysis counts (§4.4).
type CookieEvent struct {
	Op  Op  `json:"op"`
	API API `json:"api"`

	// Name/Value: for writes, deletes and HTTP sets, the affected
	// cookie; empty for reads.
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`

	// Write attributes as the assignment wrote them: the Domain
	// attribute lower-cased without a leading dot, the Path attribute,
	// and the last valid Max-Age.
	Domain string `json:"domain,omitempty"`
	Path   string `json:"path,omitempty"`
	MaxAge int64  `json:"max_age,omitempty"`

	// Attribution.
	ScriptURL    string `json:"script_url,omitempty"`
	ScriptDomain string `json:"script_domain,omitempty"`
	Inline       bool   `json:"inline,omitempty"`
	MainFrame    bool   `json:"main_frame"`

	Count int `json:"count,omitempty"` // reads an OpRead entry stands for
}

// RequestEvent is one recorded outbound request. Failure carries the
// browser's failure-taxonomy class when the request failed (see
// browser.FailureClass) and Retries the attempts beyond the first;
// Attempt is the crawl-pass marker — 2 for requests issued by the
// scheduler's fault-aware second pass (re-crawl of the transient
// failure set). All are zero-valued — and absent from the JSON — on the
// fault-free single-pass path, so records from such crawls are
// unchanged.
type RequestEvent struct {
	URL             string `json:"url"`
	Kind            string `json:"kind"`
	InitiatorScript string `json:"initiator_script,omitempty"`
	InitiatorDomain string `json:"initiator_domain,omitempty"`
	Failed          bool   `json:"failed,omitempty"`
	Failure         string `json:"failure,omitempty"`
	Retries         int    `json:"retries,omitempty"`
	Attempt         int    `json:"attempt,omitempty"`
	MainFrame       bool   `json:"main_frame"`
}

// ScriptRecord is one executed script with its inclusion path, whose
// last element is the script that injected it.
type ScriptRecord struct {
	URL           string   `json:"url,omitempty"`
	Domain        string   `json:"domain,omitempty"`
	Inline        bool     `json:"inline,omitempty"`
	InclusionPath []string `json:"inclusion_path,omitempty"`
	Failed        bool     `json:"failed,omitempty"`
}

// Direct reports direct inclusion in page HTML.
func (s ScriptRecord) Direct() bool { return len(s.InclusionPath) == 0 }

// MutationRecord is one attributed DOM mutation.
type MutationRecord struct {
	Kind        string `json:"kind"`
	OwnerScript string `json:"owner_script,omitempty"` // "" = the page
	ByScript    string `json:"by_script,omitempty"`
}

// VisitLog is everything observed while visiting one site.
type VisitLog struct {
	Site  string `json:"site"` // eTLD+1
	URL   string `json:"url"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Failure is the fatal class of the landing-load failure in the
	// crawl failure taxonomy (dns, conn-reset, timeout, http, truncated,
	// circuit-open, internal) when OK is false, and empty when OK is
	// true.
	Failure string `json:"failure,omitempty"`
	// Vantage names the vantage point the visit was crawled from, empty
	// for the implicit default vantage — so single-vantage records are
	// byte-identical to records from before vantages existed.
	Vantage string `json:"vantage,omitempty"`
	// Persona names the consent persona the visit was crawled under
	// (e.g. "accept", "reject", "dismiss"), empty for the implicit
	// persona-free crawl — so persona-free records are byte-identical to
	// records from before personas existed.
	Persona string `json:"persona,omitempty"`

	Cookies   []CookieEvent    `json:"cookies,omitempty"`
	Requests  []RequestEvent   `json:"requests,omitempty"`
	Scripts   []ScriptRecord   `json:"scripts,omitempty"`
	Mutations []MutationRecord `json:"mutations,omitempty"`

	Timing browser.Timing `json:"timing"`

	// bufs is the pooled store the four slices above (and every script's
	// InclusionPath) were built in by BuildVisitLog; nil for a log
	// decoded from JSON, built by hand, or already released.
	bufs *logBuffers
}

// logBuffers is the backing store of one built VisitLog. Buffers keep
// the capacity earlier visits grew them to, so building a log rarely
// allocates.
type logBuffers struct {
	cookies   []CookieEvent
	requests  []RequestEvent
	scripts   []ScriptRecord
	mutations []MutationRecord
	paths     []string // every script's inclusion path, back to back
}

var logBufs = sync.Pool{New: func() any { return new(logBuffers) }}

// Release hands the buffers BuildVisitLog built v in back to a pool
// shared by all logs, clearing them to their full capacity first so the
// pool pins none of the visit's strings, and sets v's slices to nil.
//
// Only the log's owner may release it, and only once nothing reads the
// log, a copy of it, or any slice taken from it any more: the buffers
// go to the next visit's log. Strings read out of the log stay valid.
// A consumer that never calls Release keeps the log; the garbage
// collector frees it with its buffers. A second Release, and Release on
// a log that BuildVisitLog did not build (decoded from JSON, built by
// hand), do nothing.
func (v *VisitLog) Release() {
	b := v.bufs
	if b == nil {
		return
	}
	clear(b.cookies[:cap(b.cookies)])
	clear(b.requests[:cap(b.requests)])
	clear(b.scripts[:cap(b.scripts)])
	clear(b.mutations[:cap(b.mutations)])
	clear(b.paths[:cap(b.paths)])
	logBufs.Put(b)
	v.Cookies, v.Requests, v.Scripts, v.Mutations, v.bufs = nil, nil, nil, nil, nil
}

// Complete implements the paper's retention criterion: both cookie access
// logs and network request data must be present (§4.2). It is the single
// shared predicate — the crawler's retention filter and the analysis
// pipeline's per-log skip both delegate here.
//
// The predicate is deliberately insensitive to *degradation*: a visit
// whose landing document loaded (OK) is retained even when individual
// subresources, scripts, or frames failed — exactly as the paper
// retains crawls that lost a tracking pixel but not the page. Only
// a fatal landing failure (OK == false) or missing cookie/request data
// disqualifies a visit; per-request failures stay visible through
// RequestEvent.Failed/Failure and feed the analysis failure table.
func (v VisitLog) Complete() bool {
	return v.OK && len(v.Cookies) > 0 && len(v.Requests) > 0
}

// Degraded reports whether a retained visit lost something along the
// way: at least one failed request.
func (v VisitLog) Degraded() bool {
	for _, r := range v.Requests {
		if r.Failed {
			return true
		}
	}
	return false
}

// Recorder accumulates events for one browser session (one site visit,
// possibly spanning several page navigations).
type Recorder struct {
	mu     sync.Mutex
	events []CookieEvent
	buf    *[]CookieEvent // pooled backing array of events; nil once released
}

// eventBufs recycles recorder event buffers across visits: a buffer
// keeps the capacity earlier visits grew it to, so a visit's appends
// rarely grow it at all. Only BuildVisitLog's copy outlives the visit.
var eventBufs = sync.Pool{New: func() any {
	b := make([]CookieEvent, 0, 48)
	return &b
}}

// NewRecorder returns an empty Recorder whose event buffer comes from a
// pool shared by all recorders. Call Release once the visit's log is
// built to hand the buffer back; a recorder that is never released is
// simply collected with its buffer.
func NewRecorder() *Recorder {
	buf := eventBufs.Get().(*[]CookieEvent)
	return &Recorder{events: (*buf)[:0], buf: buf}
}

// Release clears the event buffer to its full capacity, so the pool pins
// none of the visit's strings, and returns it to the pool. Logs built
// before Release keep their own copies of the events and are unaffected.
// The recorder must not record after Release; a second Release is a
// no-op.
func (r *Recorder) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return
	}
	clear(r.events[:cap(r.events)])
	*r.buf = r.events[:0]
	eventBufs.Put(r.buf)
	r.events, r.buf = nil, nil
}

// Middleware returns the recorder's cookie layer. Installed on a browser,
// it registers the jar observer that captures HTTP Set-Cookie headers and
// wraps the cookie API below it with one that records every call before
// forwarding it. Below it is the raw API in a measurement crawl; a
// CookieGuard layer installed after it (outside) filters first, so the
// recorder sees post-enforcement behaviour.
func (r *Recorder) Middleware() browser.CookieMiddleware {
	return func(b *browser.Browser, next browser.CookieAPI) browser.CookieAPI {
		b.Jar().Observe(r.observeHTTP)
		return &recordingAPI{rec: r, next: next, clock: b.Clock()}
	}
}

// observeHTTP records HTTP Set-Cookie headers (server-set cookies).
// HttpOnly cookies are skipped, exactly as the paper's extension extracts
// only non-HttpOnly Set-Cookie values (§4.1).
func (r *Recorder) observeHTTP(ch cookiejar.Change) {
	if ch.Source != cookiejar.SourceHTTP || ch.Cookie.HttpOnly {
		return
	}
	ev := CookieEvent{
		Op:        OpHTTPSet,
		API:       APIHTTP,
		Name:      ch.Cookie.Name,
		Value:     ch.Cookie.Value,
		Domain:    publicsuffix.RegistrableDomain(ch.Host),
		MainFrame: true,
	}
	if ch.Kind == cookiejar.ChangeDeleted {
		ev.Op = OpDelete
	}
	r.append(ev)
}

func (r *Recorder) append(ev CookieEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// read counts one read through api: it adds one to the visit's read
// entry with the same script, inline flag, frame and API, or appends
// that entry with a count of one.
func (r *Recorder) read(ctx browser.AccessContext, api API) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.events {
		ev := &r.events[i]
		if ev.Op == OpRead && ev.API == api && ev.ScriptURL == ctx.ScriptURL &&
			ev.Inline == ctx.Inline && ev.MainFrame == ctx.MainFrame {
			ev.Count++
			return
		}
	}
	ev := baseEvent(ctx, OpRead, api)
	ev.Count = 1
	r.events = append(r.events, ev)
}

// Events returns a copy of the recorded cookie events; it never aliases
// the pooled buffer.
func (r *Recorder) Events() []CookieEvent { return r.appendEvents(nil) }

// appendEvents appends the recorded cookie events to dst.
func (r *Recorder) appendEvents(dst []CookieEvent) []CookieEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(dst, r.events...)
}

// BuildVisitLog assembles the VisitLog for a finished visit. pages lists
// every main-frame page loaded during the visit (landing plus clicked
// links); err is the landing-load error, if any.
//
// The log copies everything it keeps, inclusion paths too, into buffers
// of its own from a pool, so it shares no memory with the recorder or
// the pages: both may be released once it is built. The log's owner
// hands the buffers back with VisitLog.Release.
func (r *Recorder) BuildVisitLog(site string, pages []*browser.Page, err error) VisitLog {
	v := VisitLog{Site: site, OK: err == nil}
	if err != nil {
		v.Error = err.Error()
		v.Failure = string(browser.ClassifyError(err))
	}
	// Grow each buffer to its total up front: the totals are known, so
	// the appends below never regrow one.
	var nReq, nScr, nPath, nMut int
	for _, p := range pages {
		nReq += len(p.Requests)
		nScr += len(p.Scripts)
		for _, se := range p.Scripts {
			nPath += len(se.InclusionPath)
		}
		if p.Doc != nil {
			nMut += len(p.Doc.Mutations)
		}
	}
	b := logBufs.Get().(*logBuffers)
	v.bufs = b
	b.cookies = r.appendEvents(b.cookies[:0])
	b.requests = slices.Grow(b.requests[:0], nReq)
	b.scripts = slices.Grow(b.scripts[:0], nScr)
	b.paths = slices.Grow(b.paths[:0], nPath)
	b.mutations = slices.Grow(b.mutations[:0], nMut)
	for i, p := range pages {
		if i == 0 {
			v.URL = p.URL
			v.Timing = p.Timing
		}
		for _, req := range p.Requests {
			b.requests = append(b.requests, RequestEvent{
				URL:             req.URL,
				Kind:            req.Kind.String(),
				InitiatorScript: req.InitiatorScript,
				InitiatorDomain: urlutil.RegistrableDomain(req.InitiatorScript),
				Failed:          req.Failed,
				Failure:         string(req.Failure),
				Retries:         req.Retries,
				MainFrame:       p.MainFrame(),
			})
		}
		for _, se := range p.Scripts {
			var path []string
			if len(se.InclusionPath) > 0 {
				start := len(b.paths)
				b.paths = append(b.paths, se.InclusionPath...)
				path = b.paths[start:len(b.paths):len(b.paths)]
			}
			b.scripts = append(b.scripts, ScriptRecord{
				URL:           se.URL,
				Domain:        urlutil.RegistrableDomain(se.URL),
				Inline:        se.Inline,
				InclusionPath: path,
				Failed:        se.Err != nil,
			})
		}
		if p.Doc != nil {
			for _, m := range p.Doc.Mutations {
				b.mutations = append(b.mutations, MutationRecord{
					Kind:        m.Kind.String(),
					OwnerScript: m.Owner,
					ByScript:    m.ByScript,
				})
			}
		}
	}
	v.Cookies, v.Requests, v.Scripts, v.Mutations = b.cookies, b.requests, b.scripts, b.mutations
	return v
}

// recordingAPI wraps a CookieAPI and records every call.
type recordingAPI struct {
	rec   *Recorder
	next  browser.CookieAPI
	clock cookiejar.Clock // the browser's, which its jar reads too
}

// baseEvent is an event of op through api with ctx's attribution.
func baseEvent(ctx browser.AccessContext, op Op, api API) CookieEvent {
	return CookieEvent{
		Op:           op,
		API:          api,
		ScriptURL:    ctx.ScriptURL,
		ScriptDomain: ctx.ScriptDomain(),
		Inline:       ctx.Inline,
		MainFrame:    ctx.MainFrame,
	}
}

func (a *recordingAPI) GetDocumentCookie(ctx browser.AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	out := a.next.GetDocumentCookie(ctx, dst)
	a.rec.read(ctx, APIDocument)
	return out
}

func (a *recordingAPI) SetCookie(ctx browser.AccessContext, src cookiejar.Source, assignment string) {
	api := APIDocument
	if src == cookiejar.SourceCookieStore {
		api = APICookieStore
	}
	ev := baseEvent(ctx, OpWrite, api)
	if as, ok := cookiejar.ParseAssignment(assignment); ok {
		ev.Name, ev.Value = as.Name, as.Value
		ev.Domain, ev.Path, ev.MaxAge = as.Domain, as.Path, as.MaxAge
		if as.Expired(a.clock.Now()) {
			ev.Op = OpDelete
		}
	}
	a.rec.append(ev)
	a.next.SetCookie(ctx, src, assignment)
}

func (a *recordingAPI) StoreGet(ctx browser.AccessContext, name string) (jsdsl.CookieRecord, bool) {
	rec, ok := a.next.StoreGet(ctx, name)
	a.rec.read(ctx, APICookieStore)
	return rec, ok
}

// MutationCrossDomain reports whether a DOM mutation crossed domains: the
// acting script's domain differs from the owner's (the page's domain for
// parser-created nodes).
func MutationCrossDomain(m MutationRecord, siteDomain string) bool {
	by := urlutil.RegistrableDomain(m.ByScript)
	if by == "" {
		return false // inline/page-level actor: unattributable
	}
	owner := siteDomain
	if m.OwnerScript != "" {
		owner = urlutil.RegistrableDomain(m.OwnerScript)
	}
	return by != owner
}
