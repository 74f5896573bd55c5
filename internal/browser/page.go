package browser

import (
	"fmt"
	"net/url"

	"cookieguard/internal/dom"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/urlutil"
)

// Page-load limits and virtual costs: a script-inclusion chain deeper
// than maxInjectionDepth is not followed, a page executes at most
// maxScriptsPerPage scripts, each interpreter step costs execCostPerStep
// virtual milliseconds, and HTML parsing costs parseCostPerKB per
// kilobyte.
const (
	maxInjectionDepth = 6
	maxScriptsPerPage = 400
	execCostPerStep   = 0.002
	parseCostPerKB    = 0.15
)

// RequestKind classifies observed network requests.
type RequestKind int

// Request kinds.
const (
	ReqDocument RequestKind = iota
	ReqScript
	ReqSubresource // images, stylesheets
	ReqFrame
	ReqBeacon // script-initiated send()
)

func (k RequestKind) String() string {
	switch k {
	case ReqDocument:
		return "document"
	case ReqScript:
		return "script"
	case ReqSubresource:
		return "subresource"
	case ReqFrame:
		return "frame"
	case ReqBeacon:
		return "beacon"
	default:
		return "unknown"
	}
}

// Request is one network request observed during a page load, with the
// initiator attribution the paper obtains from the Chrome debugger
// protocol's Network.requestWillBeSent stack traces (§4.1).
type Request struct {
	URL             string
	Kind            RequestKind
	InitiatorScript string // "" = the page itself
	Failed          bool
	// Failure classifies the terminal failure (FailNone on success) and
	// Retries counts attempts beyond the first; both stay zero-valued on
	// the happy path so fault-free records are unchanged.
	Failure FailureClass
	Retries int
}

// ScriptExec records one executed script with its inclusion path.
type ScriptExec struct {
	// URL of the external script; "" for inline scripts.
	URL    string
	Inline bool
	// InclusionPath is the chain of injecting script URLs from the
	// HTML down to (excluding) this script; its last element is the
	// script that injected this one. Nothing writes to it while the page
	// lives, but it is a window on the page's path slab, which a pooled
	// page reuses once it is released (Browser.Release): copy it to keep
	// it longer, as instrument.BuildVisitLog does.
	InclusionPath []string
	// Err is the parse or runtime error, if the script failed.
	Err error
	// Steps is the number of interpreter steps executed.
	Steps int
}

// Timing is the page-load milestone set from paper §7.3, in virtual ms.
type Timing struct {
	DOMInteractive   float64
	DOMContentLoaded float64
	LoadEvent        float64
}

type clickHandler struct {
	frame frame
	run   func()
}

// idClickHandler is a click handler bound to one element id (the consent
// banner's accept/reject/dismiss targets); only ClickID(id) fires it.
type idClickHandler struct {
	id    string
	frame frame
	run   func()
}

type deferredTask struct {
	frame frame
	run   func()
}

// frame is one entry of the execution stack. path is the inclusion chain
// that led to the executing script, so transitive injections extend it.
type frame struct {
	scriptURL string
	inline    bool
	path      []string
}

// Page is a loaded document plus everything observed while loading it.
type Page struct {
	URL    string
	Origin urlutil.Origin
	Doc    *dom.Document

	Scripts  []ScriptExec
	Requests []Request
	Timing   Timing

	// Frames holds sub-pages loaded in iframes (SOP-isolated: their
	// scripts ran against their own origin and cannot touch this page).
	Frames []*Page

	browser   *Browser
	mainFrame bool

	execStack []frame
	injectQ   []injection
	deferQ    []deferredTask
	clicks    []clickHandler
	idClicks  []idClickHandler
	startMS   float64 // clock at navigation start, ms since epoch
	scriptCnt int
	// parallelCredit is virtual time saved by the parallel-resource
	// model: the fabric fetches sequentially, so we credit back the
	// difference between the sequential sum and the slowest resource.
	parallelCredit float64

	// binding is the page's jsdsl.Host, shared by every script the page
	// executes; interps tracks pooled interpreters so Release can recycle
	// them once no deferred callback can run anymore.
	binding hostBinding
	interps []*jsdsl.Interp

	// paths is the slab every injection's inclusion path is a window
	// on, and inlineHop the hop an inline or page-level injector adds
	// ("inline:" + URL), built once per page.
	paths     []string
	inlineHop string
	// nodes is scratch for the element lists that load's script loop,
	// loadSubresources and RandomLink walk. None of them runs while
	// another walks it: scripts cannot reach any of the three.
	nodes []*dom.Node

	// baseURL is the lazily parsed page URL, so the many per-page
	// reference resolutions parse the base once instead of per call.
	baseURL *url.URL
}

// resolve resolves ref against the page URL, caching the parsed base.
func (p *Page) resolve(ref string) string {
	if p.baseURL == nil {
		u, err := url.Parse(p.URL)
		if err != nil {
			return ref // a bad base leaves ref unresolved
		}
		p.baseURL = u
	}
	return urlutil.ResolveRef(p.baseURL, ref)
}

// injection is a queued dynamically inserted script. Its path is its own
// window on the page's path slab (hostBinding.Inject); runExternal takes
// it over as the script's ScriptExec.InclusionPath.
type injection struct {
	src  string
	path []string
}

func newPage(b *Browser, url string, mainFrame bool) *Page {
	origin, _ := urlutil.ParseOrigin(url)
	var p *Page
	if b.opts.Pooling {
		pageAcquired.Add(1)
		p = pagePool.Get().(*Page)
		b.pages = append(b.pages, p)
	} else {
		p = &Page{}
	}
	p.URL = url
	p.Origin = origin
	p.browser = b
	p.mainFrame = mainFrame
	p.binding.page = p
	return p
}

// elapsed returns ms since navigation start.
func (p *Page) elapsed() float64 {
	return float64(p.browser.clock.UnixMillis()) - p.startMS
}

// load runs the full page-load pipeline.
func (p *Page) load() error {
	b := p.browser
	p.startMS = float64(b.clock.UnixMillis())

	// 1. Fetch the document. A document failure is fatal — there is no
	// page to degrade into — and surfaces as a typed LoadError carrying
	// its failure class. Everything fetched below the document degrades
	// gracefully instead: the failure is recorded on the request log and
	// the load continues.
	p.recordRequest(p.URL, ReqDocument, frame{})
	fr := b.fetch(p.URL)
	if fr.failure == FailNone && fr.status >= 400 {
		fr.failure = FailHTTP // a document needs its content; 4xx is fatal
	}
	p.noteResult(p.URL, fr)
	if fr.err != nil {
		return &LoadError{URL: p.URL, Class: fr.failure, Status: fr.status, Err: fr.err}
	}
	if fr.status >= 400 {
		return &LoadError{URL: p.URL, Class: FailHTTP, Status: fr.status}
	}
	body := fr.body

	// 2. Parse HTML. The simulated parse cost is charged either way —
	// the artifact cache is an engine optimization, not a model of a
	// browser cache — but with a cache the tree is parsed once per
	// content and deep-cloned per page (pages mutate their DOM).
	b.clock.AdvanceMillis(float64(len(body)) / 1024 * parseCostPerKB)
	if b.opts.Artifacts != nil {
		p.Doc = b.opts.Artifacts.Document(p.URL, body)
	} else {
		p.Doc = dom.NewDocument(p.URL, dom.Parse(body))
	}

	// 3. Execute scripts in document order (parser-blocking, as real
	// classic scripts are). The list is a snapshot: a <script> a script
	// inserts does not run from this loop.
	for _, s := range p.collect("script", "") {
		if src := s.Attr("src"); src != "" {
			p.runExternal(p.resolve(src), nil)
		} else {
			p.runInline(s.InnerText())
		}
	}
	p.Timing.DOMInteractive = p.elapsed()

	// 4. DOMContentLoaded fires after DOMContentLoaded handlers run;
	// charge a small handler cost so DI < DCL as in Table 4.
	b.clock.AdvanceMillis(2 + 0.4*float64(len(p.Scripts)))
	p.Timing.DOMContentLoaded = p.elapsed()

	// 5. Subresources and iframes (modelled as parallel: the clock
	// advances by the max latency, not the sum).
	p.loadSubresources()

	// 6. Injected scripts arrive after DCL (async insertion), then
	// deferred callbacks.
	p.drainDeferred()

	p.Timing.LoadEvent = p.elapsed() - p.parallelCredit
	if p.Timing.LoadEvent < p.Timing.DOMContentLoaded {
		p.Timing.LoadEvent = p.Timing.DOMContentLoaded
	}
	return nil
}

func (p *Page) loadSubresources() {
	if p.Doc == nil {
		return
	}
	b := p.browser
	var maxLat float64

	// Parallel model: total wall time is the max individual time.
	// We fetch sequentially (the fabric is synchronous) but only charge
	// the maximum latency: record clock, fetch all, then set the clock
	// to start + max. A failed subresource never aborts the page — the
	// failure is classified on its request record and the load goes on.
	startMS := b.clock.UnixMillis()
	for _, r := range [...]struct{ tag, attr string }{{"img", "src"}, {"link", "href"}} {
		for _, n := range p.collect(r.tag, r.attr) {
			u := p.resolve(n.Attr(r.attr))
			preMS := b.clock.UnixMillis()
			p.recordRequest(u, ReqSubresource, frame{})
			p.noteResult(u, b.fetch(u))
			lat := float64(b.clock.UnixMillis() - preMS)
			if lat > maxLat {
				maxLat = lat
			}
		}
	}
	// Iframes load their own documents (sequential within the frame,
	// parallel across frames at this level of fidelity). A frame whose
	// document fails is dropped; the failure class lands on the parent's
	// frame request.
	for _, f := range p.collect("iframe", "src") {
		src := p.resolve(f.Attr("src"))
		preMS := b.clock.UnixMillis()
		p.recordRequest(src, ReqFrame, frame{})
		sub := newPage(b, src, false)
		if err := sub.load(); err == nil {
			p.Frames = append(p.Frames, sub)
			// The frame's own requests stay on the SOP-isolated sub-page
			// (visit logs record main-frame data), but the retries its
			// document needed belong to the parent's frame request.
			if len(sub.Requests) > 0 {
				p.noteResult(src, fetchResult{retries: sub.Requests[0].Retries})
			}
		} else {
			p.noteResult(src, fetchResult{failure: ClassifyError(err), err: err})
		}
		lat := float64(b.clock.UnixMillis() - preMS)
		if lat > maxLat {
			maxLat = lat
		}
	}
	// Credit back the difference between the sequential sum and the
	// slowest single resource: the virtual clock cannot move backwards,
	// so load() subtracts the credit from the LoadEvent milestone.
	endMS := b.clock.UnixMillis()
	sequential := float64(endMS - startMS)
	if sequential > maxLat {
		p.parallelCredit += sequential - maxLat
	}
}

// drainInjections executes dynamically injected scripts breadth-first.
// The queue is consumed by index rather than by re-slicing the head, so
// a recycled page keeps the queue's full backing array.
func (p *Page) drainInjections() {
	for i := 0; i < len(p.injectQ); i++ {
		inj := p.injectQ[i]
		if len(inj.path) > maxInjectionDepth {
			continue
		}
		p.runExternal(inj.src, inj.path)
	}
	p.injectQ = p.injectQ[:0]
}

// drainDeferred runs the injected scripts queued so far, then
// setTimeout-style callbacks (which may inject more scripts or defer more
// work), draining each callback's injections before the next callback.
// Same index-based consumption as drainInjections, for the same
// backing-array reasons.
func (p *Page) drainDeferred() {
	p.drainInjections()
	for i := 0; i < len(p.deferQ); i++ {
		task := p.deferQ[i]
		fr := task.frame
		if p.browser.opts.DropAsyncAttribution {
			fr = frame{} // stack lost: unattributable (paper §8)
		}
		p.pushFrame(fr)
		task.run()
		p.popFrame()
		p.drainInjections()
	}
	p.deferQ = p.deferQ[:0]
}

// runExternal fetches and executes an external script. A failed fetch
// degrades gracefully: the script is recorded as failed with its class
// and the page load continues. The script's record takes ownership of
// path (an injection's own, or nil for a script in the HTML).
func (p *Page) runExternal(src string, path []string) {
	if p.scriptCnt >= maxScriptsPerPage {
		return
	}
	p.scriptCnt++
	p.recordRequest(src, ReqScript, p.currentFrame())
	fr := p.browser.fetch(src)
	if fr.failure == FailNone && fr.status >= 400 {
		fr.failure = FailHTTP // a script needs its content; 4xx is fatal
	}
	p.noteResult(src, fr)
	exec := ScriptExec{URL: src, InclusionPath: path}
	if fr.err != nil || fr.status >= 400 {
		exec.Err = fmt.Errorf("fetch script %s: status=%d err=%w", src, fr.status, errOr(fr.err))
		p.Scripts = append(p.Scripts, exec)
		return
	}
	p.execScript(fr.body, frame{scriptURL: src, path: exec.InclusionPath}, &exec)
	p.Scripts = append(p.Scripts, exec)
}

func errOr(err error) error {
	if err == nil {
		return fmt.Errorf("http error")
	}
	return err
}

// runInline executes an inline script (no attributable origin).
func (p *Page) runInline(source string) {
	if p.scriptCnt >= maxScriptsPerPage {
		return
	}
	p.scriptCnt++
	exec := ScriptExec{Inline: true}
	p.execScript(source, frame{inline: true}, &exec)
	p.Scripts = append(p.Scripts, exec)
}

// execScript compiles and runs a script body. With an artifact cache,
// source keys the compiled-program lookup, so each distinct script
// compiles once per crawl (the cache shares one immutable *jsdsl.Program
// across pages and goroutines; all run state lives in the per-execution
// Interp).
func (p *Page) execScript(source string, fr frame, exec *ScriptExec) {
	var prog *jsdsl.Program
	var err error
	if cache := p.browser.opts.Artifacts; cache != nil {
		prog, err = cache.Program(source)
	} else {
		prog, err = jsdsl.Parse(source)
	}
	if err != nil {
		exec.Err = err
		return
	}
	p.pushFrame(fr)
	var interp *jsdsl.Interp
	if p.browser.opts.Pooling {
		// Pooled interpreters are recycled at Release time, not here: the
		// script may have registered click handlers or deferred callbacks
		// that re-enter this interpreter later in the page's life.
		interp = jsdsl.AcquireInterp(&p.binding)
		p.interps = append(p.interps, interp)
	} else {
		interp = jsdsl.NewInterp(&p.binding)
	}
	err = interp.Run(prog)
	p.popFrame()
	exec.Err = err
	exec.Steps = interp.Steps()
	p.browser.clock.AdvanceMillis(float64(exec.Steps) * execCostPerStep)
}

// pushFrame enters fr.
func (p *Page) pushFrame(fr frame) {
	p.execStack = append(p.execStack, fr)
}

// popFrame leaves the innermost frame.
func (p *Page) popFrame() {
	p.execStack = p.execStack[:len(p.execStack)-1]
}

// currentFrame returns the executing frame (zero when page-level).
func (p *Page) currentFrame() frame {
	if len(p.execStack) == 0 {
		return frame{}
	}
	return p.execStack[len(p.execStack)-1]
}

// accessContext builds the attribution context for the current execution.
func (p *Page) accessContext() AccessContext {
	fr := p.currentFrame()
	return AccessContext{
		PageURL:   p.URL,
		ScriptURL: fr.scriptURL,
		Inline:    fr.inline,
		MainFrame: p.mainFrame,
	}
}

func (p *Page) recordRequest(url string, kind RequestKind, fr frame) {
	p.Requests = append(p.Requests, Request{
		URL:             url,
		Kind:            kind,
		InitiatorScript: fr.scriptURL,
	})
}

// noteResult annotates the most recent request record for url with the
// fetch outcome: the retry count always, plus the failure classification
// when the fetch ultimately failed.
func (p *Page) noteResult(url string, r fetchResult) {
	for i := len(p.Requests) - 1; i >= 0; i-- {
		if p.Requests[i].URL == url {
			p.Requests[i].Retries = r.retries
			if r.failure != FailNone {
				p.Requests[i].Failed = true
				p.Requests[i].Failure = r.failure
			}
			return
		}
	}
}

// Click simulates a user click: fires every registered click handler and
// returns how many ran. The crawler's light interaction (§4.2) calls this.
func (p *Page) Click() int {
	n := 0
	for _, h := range p.clicks {
		p.pushFrame(h.frame)
		h.run()
		p.popFrame()
		n++
	}
	p.drainDeferred()
	return n
}

// ClickID simulates a targeted click on the element with the given id:
// only handlers registered for that id (on_click_id) fire, in
// registration order, and the global click handlers stay untouched —
// clicking a consent banner button must not double as the generic
// interaction click. Returns how many handlers ran; injections and
// deferred work queued by the handlers are drained, exactly as after
// Click.
func (p *Page) ClickID(id string) int {
	n := 0
	for _, h := range p.idClicks {
		if h.id != id {
			continue
		}
		p.pushFrame(h.frame)
		h.run()
		p.popFrame()
		n++
	}
	p.drainDeferred()
	return n
}

// Scroll simulates scrolling: it only advances the clock (lazy-load
// behaviours are not modelled).
func (p *Page) Scroll() {
	p.browser.clock.AdvanceMillis(16)
}

// RandomLink returns a uniformly chosen same-parse link href resolved
// against the page, or "" if the page has none.
func (p *Page) RandomLink() string {
	if p.Doc == nil {
		return ""
	}
	links := p.collect("a", "href")
	if len(links) == 0 {
		return ""
	}
	l := links[p.browser.rng.Intn(len(links))]
	return p.resolve(l.Attr("href"))
}

// collect lists the page's tag elements, in document order, that carry a
// non-empty attr (every one when attr is ""). The list lives in the
// page's scratch and is valid until the next collect.
func (p *Page) collect(tag, attr string) []*dom.Node {
	all := p.Doc.AppendByTag(p.nodes[:0], tag)
	p.nodes = all
	if attr == "" {
		return all
	}
	out := all[:0]
	for _, n := range all {
		if n.Attr(attr) != "" {
			out = append(out, n)
		}
	}
	return out
}

// MainFrame reports whether this page is a top-level document.
func (p *Page) MainFrame() bool { return p.mainFrame }
