package browser

import (
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/urlutil"
)

// hostBinding implements jsdsl.Host for scripts executing in a page. Every
// cookie operation flows through the browser's (possibly wrapped)
// CookieAPI with the current attribution context attached.
type hostBinding struct {
	page *Page
}

var _ jsdsl.Host = (*hostBinding)(nil)

func (h *hostBinding) ctx() AccessContext { return h.page.accessContext() }

func (h *hostBinding) DocCookie(dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	return h.page.browser.api.GetDocumentCookie(h.ctx(), dst)
}

func (h *hostBinding) SetDocCookie(assignment string) {
	h.page.browser.api.SetCookie(h.ctx(), cookiejar.SourceDocument, assignment)
}

func (h *hostBinding) CookieStoreGet(name string) (jsdsl.CookieRecord, bool) {
	return h.page.browser.api.StoreGet(h.ctx(), name)
}

func (h *hostBinding) CookieStoreSet(rec jsdsl.CookieRecord) {
	h.page.browser.api.SetCookie(h.ctx(), cookiejar.SourceCookieStore, RecordAssignment(rec))
}

// Send issues a script-initiated GET (image pixel / fetch beacon). The
// request is recorded with its initiating script before the network
// attempt, mirroring Network.requestWillBeSent, and failures are
// classified on the record but otherwise ignored, just like a dropped
// tracking pixel.
func (h *hostBinding) Send(url string, keys, vals []string) {
	full := urlutil.WithParams(h.page.resolve(url), keys, vals)
	fr := h.page.currentFrame()
	h.page.recordRequest(full, ReqBeacon, fr)
	h.page.noteResult(full, h.page.browser.fetch(full))
}

// Inject queues a dynamically inserted external script (indirect
// inclusion). The inclusion path extends the injecting script's path,
// which travels on the execution frame; it is appended to the page's
// path slab rather than allocated per injection.
func (h *hostBinding) Inject(src string) {
	p := h.page
	fr := p.currentFrame()
	full := p.resolve(src)
	hop := fr.scriptURL
	if hop == "" {
		// Inline or page-level injector: mark the hop as inline.
		if p.inlineHop == "" {
			p.inlineHop = "inline:" + p.URL
		}
		hop = p.inlineHop
	}
	start := len(p.paths)
	p.paths = append(append(p.paths, fr.path...), hop)
	path := p.paths[start:len(p.paths):len(p.paths)]
	p.injectQ = append(p.injectQ, injection{src: full, path: path})
}

func (h *hostBinding) DOMSetText(id, text string) bool {
	n := h.page.Doc.ByID(id)
	if n == nil {
		return false
	}
	h.page.Doc.SetText(n, text, h.page.currentFrame().scriptURL)
	return true
}

func (h *hostBinding) DOMSetStyle(id, prop, value string) bool {
	n := h.page.Doc.ByID(id)
	if n == nil {
		return false
	}
	h.page.Doc.SetStyle(n, prop, value, h.page.currentFrame().scriptURL)
	return true
}

func (h *hostBinding) DOMInsert(parentID, tag string, keys, vals []string) bool {
	parent := h.page.Doc.ByID(parentID)
	if parent == nil && (parentID == "body" || parentID == "head") {
		parent = h.page.Doc.FirstByTag(parentID)
	}
	if parent == nil {
		return false
	}
	h.page.Doc.Insert(parent, tag, keys, vals, h.page.currentFrame().scriptURL)
	return true
}

func (h *hostBinding) DOMRemove(id string) bool {
	n := h.page.Doc.ByID(id)
	if n == nil {
		return false
	}
	return h.page.Doc.Remove(n, h.page.currentFrame().scriptURL)
}

func (h *hostBinding) OnClick(cb func()) {
	h.page.clicks = append(h.page.clicks, clickHandler{frame: h.page.currentFrame(), run: cb})
}

func (h *hostBinding) OnClickID(id string, cb func()) {
	h.page.idClicks = append(h.page.idClicks, idClickHandler{id: id, frame: h.page.currentFrame(), run: cb})
}

func (h *hostBinding) DeferRun(cb func()) {
	h.page.deferQ = append(h.page.deferQ, deferredTask{frame: h.page.currentFrame(), run: cb})
}

func (h *hostBinding) NowMillis() int64 {
	return h.page.browser.clock.UnixMillis()
}

func (h *hostBinding) AppendRandID(b []byte, n int) []byte {
	const hexDigits = "0123456789abcdef"
	r := h.page.browser.rng
	for range n {
		b = append(b, hexDigits[r.Intn(16)])
	}
	return b
}

func (h *hostBinding) PageURL() string { return h.page.URL }

// Log discards console output; tests observe logs via jsdsl.NopHost.
func (h *hostBinding) Log(msg string) {}
