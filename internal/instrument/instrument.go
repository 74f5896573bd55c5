// Package instrument is the measurement extension of the paper (§4.1) in
// Go form: it records every document.cookie and CookieStore operation
// with script-level attribution, captures HTTP Set-Cookie headers, and
// logs outbound requests — producing one VisitLog per crawled site for
// the analysis pipeline.
//
// It installs as browser.CookieMiddleware, mirroring how the extension
// wraps the native cookie APIs with Object.defineProperty, and as a jar
// observer for server-set cookies (webRequest.onHeadersReceived).
package instrument

import (
	"strconv"
	"strings"
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
	OpRead    Op = "read"    // document.cookie getter / cookieStore get(All)
	OpWrite   Op = "write"   // assignment / cookieStore.set
	OpDelete  Op = "delete"  // expired write / cookieStore.delete
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
type CookieEvent struct {
	Op  Op  `json:"op"`
	API API `json:"api"`

	// Name/Value: for writes and deletes, the affected cookie; for
	// reads, Value holds the full returned cookie string and Name is
	// empty (a getAll) or the requested name (cookieStore.get).
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`

	// Write attributes parsed from the assignment.
	Domain string `json:"domain,omitempty"`
	Path   string `json:"path,omitempty"`
	MaxAge int64  `json:"max_age,omitempty"`

	// Attribution.
	ScriptURL    string   `json:"script_url,omitempty"`
	ScriptDomain string   `json:"script_domain,omitempty"`
	Inline       bool     `json:"inline,omitempty"`
	Stack        []string `json:"stack,omitempty"`
	MainFrame    bool     `json:"main_frame"`
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

// ScriptRecord is one executed script with its inclusion path.
type ScriptRecord struct {
	URL           string   `json:"url,omitempty"`
	Domain        string   `json:"domain,omitempty"`
	Inline        bool     `json:"inline,omitempty"`
	Parent        string   `json:"parent,omitempty"`
	InclusionPath []string `json:"inclusion_path,omitempty"`
	Failed        bool     `json:"failed,omitempty"`
}

// Direct reports direct inclusion in page HTML.
func (s ScriptRecord) Direct() bool { return len(s.InclusionPath) == 0 }

// MutationRecord is one attributed DOM mutation.
type MutationRecord struct {
	Kind        string `json:"kind"`
	TargetID    string `json:"target_id,omitempty"`
	OwnerScript string `json:"owner_script,omitempty"` // "" = the page
	ByScript    string `json:"by_script,omitempty"`
}

// VisitLog is everything observed while visiting one site.
type VisitLog struct {
	Site  string `json:"site"` // eTLD+1
	URL   string `json:"url"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Failure classifies the visit in the crawl failure taxonomy. With
	// OK false it is the fatal class of the landing-load failure (dns,
	// conn-reset, timeout, http, truncated, deadline, circuit-open,
	// internal); with OK true it is either empty or "deadline" — the
	// visit budget expired mid-visit and the partial data was retained.
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
}

// Complete implements the paper's retention criterion: both cookie access
// logs and network request data must be present (§4.2). It is the single
// shared predicate — the crawler's retention filter and the analysis
// pipeline's per-log skip both delegate here.
//
// The predicate is deliberately insensitive to *degradation*: a visit
// whose landing document loaded (OK) is retained even when individual
// subresources, scripts, or frames failed, and even when the visit
// budget expired mid-visit (Failure == "deadline") — exactly as the
// paper retains crawls that lost a tracking pixel but not the page. Only
// a fatal landing failure (OK == false) or missing cookie/request data
// disqualifies a visit; per-request failures stay visible through
// RequestEvent.Failed/Failure and feed the analysis failure table.
func (v VisitLog) Complete() bool {
	return v.OK && len(v.Cookies) > 0 && len(v.Requests) > 0
}

// Degraded reports whether a retained visit lost something along the
// way: at least one failed request, or a mid-visit deadline.
func (v VisitLog) Degraded() bool {
	if v.Failure != "" {
		return true
	}
	for _, r := range v.Requests {
		if r.Failed {
			return true
		}
	}
	return false
}

// FilterComplete returns the logs that pass the retention criterion, in
// input order.
func FilterComplete(logs []VisitLog) []VisitLog {
	var out []VisitLog
	for _, l := range logs {
		if l.Complete() {
			out = append(out, l)
		}
	}
	return out
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
// rarely grow it at all. Only BuildVisitLog's exact-size copy outlives
// the visit.
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

// Middleware returns the cookie-API wrapper that records operations. It
// forwards to next after recording, so it can wrap either the raw API (a
// measurement crawl) or a CookieGuard-wrapped API (a defense-evaluation
// crawl, where it observes post-enforcement behaviour).
func (r *Recorder) Middleware() browser.CookieMiddleware {
	return func(next browser.CookieAPI) browser.CookieAPI {
		return &recordingAPI{rec: r, next: next}
	}
}

// ObserveJar captures HTTP Set-Cookie headers (server-set cookies).
// HttpOnly cookies are skipped, exactly as the paper's extension extracts
// only non-HttpOnly Set-Cookie values (§4.1).
func (r *Recorder) ObserveJar(jar *cookiejar.Jar) {
	jar.Observe(func(ch cookiejar.Change) {
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
	})
}

func (r *Recorder) append(ev CookieEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns an exact-size copy of the recorded cookie events; it
// never aliases the pooled buffer.
func (r *Recorder) Events() []CookieEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CookieEvent, len(r.events))
	copy(out, r.events)
	return out
}

// BuildVisitLog assembles the VisitLog for a finished visit. pages lists
// every main-frame page loaded during the visit (landing plus clicked
// links); err is the landing-load error, if any.
func (r *Recorder) BuildVisitLog(site string, pages []*browser.Page, err error) VisitLog {
	v := VisitLog{Site: site, OK: err == nil}
	if err != nil {
		v.Error = err.Error()
		v.Failure = string(browser.ClassifyError(err))
	}
	v.Cookies = r.Events()
	// Pre-size the event slices exactly: the totals are known, and the
	// append-grow path below them was a measurable slice-copy cost on
	// large visits.
	var nReq, nScr, nMut int
	for _, p := range pages {
		nReq += len(p.Requests)
		nScr += len(p.Scripts)
		if p.Doc != nil {
			nMut += len(p.Doc.Mutations)
		}
	}
	if nReq > 0 {
		v.Requests = make([]RequestEvent, 0, nReq)
	}
	if nScr > 0 {
		v.Scripts = make([]ScriptRecord, 0, nScr)
	}
	if nMut > 0 {
		v.Mutations = make([]MutationRecord, 0, nMut)
	}
	for i, p := range pages {
		if i == 0 {
			v.URL = p.URL
			v.Timing = p.Timing
		}
		if p.DeadlineHit && v.Failure == "" {
			v.Failure = string(browser.FailDeadline)
		}
		for _, req := range p.Requests {
			v.Requests = append(v.Requests, RequestEvent{
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
			v.Scripts = append(v.Scripts, ScriptRecord{
				URL:           se.URL,
				Domain:        urlutil.RegistrableDomain(se.URL),
				Inline:        se.Inline,
				Parent:        se.Parent,
				InclusionPath: se.InclusionPath,
				Failed:        se.Err != nil,
			})
		}
		if p.Doc != nil {
			for _, m := range p.Doc.Mutations {
				v.Mutations = append(v.Mutations, MutationRecord{
					Kind:        m.Kind.String(),
					TargetID:    m.TargetID,
					OwnerScript: m.Owner,
					ByScript:    m.ByScript,
				})
			}
		}
	}
	return v
}

// recordingAPI wraps a CookieAPI and records every call.
type recordingAPI struct {
	rec  *Recorder
	next browser.CookieAPI
}

func (a *recordingAPI) base(ctx browser.AccessContext, op Op, api API) CookieEvent {
	return CookieEvent{
		Op:           op,
		API:          api,
		ScriptURL:    ctx.ScriptURL,
		ScriptDomain: ctx.ScriptDomain(),
		Inline:       ctx.Inline,
		Stack:        ctx.Stack,
		MainFrame:    ctx.MainFrame,
	}
}

func (a *recordingAPI) GetDocumentCookie(ctx browser.AccessContext) string {
	out := a.next.GetDocumentCookie(ctx)
	ev := a.base(ctx, OpRead, APIDocument)
	ev.Value = out
	a.rec.append(ev)
	return out
}

func (a *recordingAPI) SetDocumentCookie(ctx browser.AccessContext, assignment string) {
	ev := a.base(ctx, OpWrite, APIDocument)
	fillFromAssignment(&ev, assignment)
	a.rec.append(ev)
	a.next.SetDocumentCookie(ctx, assignment)
}

func (a *recordingAPI) StoreGet(ctx browser.AccessContext, name string) (jsdsl.CookieRecord, bool) {
	rec, ok := a.next.StoreGet(ctx, name)
	ev := a.base(ctx, OpRead, APICookieStore)
	ev.Name = name
	if ok {
		ev.Value = rec.Name + "=" + rec.Value
	}
	a.rec.append(ev)
	return rec, ok
}

func (a *recordingAPI) StoreGetAll(ctx browser.AccessContext) []jsdsl.CookieRecord {
	recs := a.next.StoreGetAll(ctx)
	ev := a.base(ctx, OpRead, APICookieStore)
	pairs := make([]string, len(recs))
	for i, rec := range recs {
		pairs[i] = rec.Name + "=" + rec.Value
	}
	ev.Value = strings.Join(pairs, "; ")
	a.rec.append(ev)
	return recs
}

func (a *recordingAPI) StoreSet(ctx browser.AccessContext, rec jsdsl.CookieRecord) {
	ev := a.base(ctx, OpWrite, APICookieStore)
	ev.Name = rec.Name
	ev.Value = rec.Value
	ev.Domain = rec.Domain
	ev.Path = rec.Path
	ev.MaxAge = rec.MaxAge
	if rec.MaxAge < 0 {
		ev.Op = OpDelete
	}
	a.rec.append(ev)
	a.next.StoreSet(ctx, rec)
}

func (a *recordingAPI) StoreDelete(ctx browser.AccessContext, name string) {
	ev := a.base(ctx, OpDelete, APICookieStore)
	ev.Name = name
	a.rec.append(ev)
	a.next.StoreDelete(ctx, name)
}

// fillFromAssignment parses a document.cookie assignment into the event,
// classifying expired writes as deletions.
func fillFromAssignment(ev *CookieEvent, assignment string) {
	parts := strings.Split(assignment, ";")
	nv := strings.TrimSpace(parts[0])
	if eq := strings.IndexByte(nv, '='); eq > 0 {
		ev.Name = strings.TrimSpace(nv[:eq])
		ev.Value = strings.TrimSpace(nv[eq+1:])
	}
	for _, attr := range parts[1:] {
		attr = strings.TrimSpace(attr)
		var key, val string
		if i := strings.IndexByte(attr, '='); i >= 0 {
			key, val = strings.ToLower(strings.TrimSpace(attr[:i])), strings.TrimSpace(attr[i+1:])
		} else {
			key = strings.ToLower(attr)
		}
		switch key {
		case "domain":
			ev.Domain = strings.ToLower(strings.TrimPrefix(val, "."))
		case "path":
			ev.Path = val
		case "max-age":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				ev.MaxAge = n
			}
		case "expires":
			// Expired Expires dates are handled by replay in analysis;
			// scripts in this universe delete via Max-Age.
		}
	}
	if ev.MaxAge < 0 || (ev.MaxAge == 0 && hasMaxAge(assignment)) {
		// Max-Age=0 or negative is the deletion idiom.
		if hasExplicitZeroMaxAge(assignment) {
			ev.Op = OpDelete
		}
	}
}

func hasMaxAge(assignment string) bool {
	return strings.Contains(strings.ToLower(assignment), "max-age")
}

func hasExplicitZeroMaxAge(assignment string) bool {
	low := strings.ToLower(assignment)
	idx := strings.Index(low, "max-age")
	if idx < 0 {
		return false
	}
	rest := low[idx+len("max-age"):]
	rest = strings.TrimLeft(rest, " =")
	end := strings.IndexByte(rest, ';')
	if end >= 0 {
		rest = rest[:end]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	return err == nil && n <= 0
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
