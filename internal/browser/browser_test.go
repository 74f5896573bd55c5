package browser

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"cookieguard/internal/artifact"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/netsim"
)

// testWeb builds a small synthetic site used across the browser tests:
//
//	www.shop.example      — the first-party page
//	cdn.shop.example      — first-party-owned static assets
//	tracker.example       — a third-party analytics script
//	tagmgr.example        — a tag manager that injects tracker.example
//	collect.example       — an exfiltration endpoint
func testWeb(pageHTML string, extraScripts map[string]string) *netsim.Internet {
	in := netsim.New()
	in.RegisterFunc("www.shop.example", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/", "/index":
			http.SetCookie(w, &http.Cookie{Name: "srv_session", Value: "s-123", HttpOnly: true})
			http.SetCookie(w, &http.Cookie{Name: "srv_pref", Value: "blue"})
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, pageHTML)
		case "/products":
			fmt.Fprint(w, `<html><body><div id="catalog">items</div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	})
	serveJS := func(host string, scripts map[string]string) {
		in.RegisterFunc(host, func(w http.ResponseWriter, r *http.Request) {
			if body, ok := scripts[r.URL.Path]; ok {
				w.Header().Set("Content-Type", "application/javascript")
				fmt.Fprint(w, body)
				return
			}
			http.NotFound(w, r)
		})
	}
	scriptsByHost := map[string]map[string]string{}
	for url, body := range extraScripts {
		u := strings.TrimPrefix(url, "https://")
		slash := strings.IndexByte(u, '/')
		host, path := u[:slash], u[slash:]
		if scriptsByHost[host] == nil {
			scriptsByHost[host] = map[string]string{}
		}
		scriptsByHost[host][path] = body
	}
	for host, scripts := range scriptsByHost {
		serveJS(host, scripts)
	}
	in.RegisterFunc("collect.example", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	return in
}

func newTestBrowser(t *testing.T, in *netsim.Internet) *Browser {
	t.Helper()
	b, err := New(Options{Internet: in, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVisitBasicPage(t *testing.T) {
	html := `<html><head><title>Shop</title></head>
<body><div id="main">hello</div><a href="/products">go</a></body></html>`
	b := newTestBrowser(t, testWeb(html, nil))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if p.Doc.ByID("main") == nil {
		t.Fatal("document not parsed")
	}
	// Server cookies landed in the jar, including the HttpOnly one.
	if b.Jar().Len() != 2 {
		t.Fatalf("jar len = %d", b.Jar().Len())
	}
	// Timing milestones are ordered.
	tm := p.Timing
	if !(tm.DOMInteractive <= tm.DOMContentLoaded && tm.DOMContentLoaded <= tm.LoadEvent) {
		t.Fatalf("timing out of order: %+v", tm)
	}
	if tm.LoadEvent <= 0 {
		t.Fatalf("LoadEvent = %v", tm.LoadEvent)
	}
}

func TestScriptSetsAndReadsCookies(t *testing.T) {
	html := `<html><head>
<script src="https://tracker.example/analytics.js"></script>
</head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/analytics.js": `
set_cookie("_ga", "GA1.1." + rand_id(9) + "." + str(now_ms()));
let v = get_cookie("_ga");
if (v == null) { log("missing"); }`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scripts) != 1 || p.Scripts[0].Err != nil {
		t.Fatalf("scripts = %+v", p.Scripts)
	}
	c := b.Jar().Get("https://www.shop.example/", "_ga")
	if c == nil || !strings.HasPrefix(c.Value, "GA1.1.") {
		t.Fatalf("cookie = %+v", c)
	}
}

func TestGhostWrittenCookieIsFirstParty(t *testing.T) {
	// The core phenomenon (§2.3): a third-party script's cookie is
	// indistinguishable from a first-party cookie in the jar.
	html := `<html><head><script src="https://tracker.example/t.js"></script></head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/t.js": `set_cookie("_tid", "xyz");`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	if _, err := b.Visit("https://www.shop.example/"); err != nil {
		t.Fatal(err)
	}
	c := b.Jar().Get("https://www.shop.example/", "_tid")
	if c == nil {
		t.Fatal("ghost-written cookie missing")
	}
	if c.Domain != "www.shop.example" {
		t.Fatalf("cookie domain = %q; ghost-written cookie must be first-party", c.Domain)
	}
}

func TestCrossDomainReadSeesOtherScriptsCookies(t *testing.T) {
	html := `<html><head>
<script src="https://tracker.example/setter.js"></script>
<script src="https://other-tracker.example/reader.js"></script>
</head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/setter.js": `set_cookie("_fbp", "fb.0.1746.868308499845957651");`,
		"https://other-tracker.example/reader.js": `
let v = get_cookie("_fbp");
if (v != null) {
  send("https://collect.example/sync", {"fbp": v});
}`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	var beacon *Request
	for i := range p.Requests {
		if p.Requests[i].Kind == ReqBeacon {
			beacon = &p.Requests[i]
		}
	}
	if beacon == nil {
		t.Fatal("no beacon sent: cross-domain read failed")
	}
	if !strings.Contains(beacon.URL, "fbp=fb.0.1746.868308499845957651") {
		t.Fatalf("beacon URL = %q", beacon.URL)
	}
	if beacon.InitiatorScript != "https://other-tracker.example/reader.js" {
		t.Fatalf("initiator = %q", beacon.InitiatorScript)
	}
}

func TestInjectionChainTracking(t *testing.T) {
	html := `<html><head><script src="https://tagmgr.example/gtm.js"></script></head><body></body></html>`
	scripts := map[string]string{
		"https://tagmgr.example/gtm.js":    `inject("https://tracker.example/child.js");`,
		"https://tracker.example/child.js": `inject("https://deep.example/leaf.js");`,
		"https://deep.example/leaf.js":     `set_cookie("_deep", "1");`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scripts) != 3 {
		t.Fatalf("scripts = %d", len(p.Scripts))
	}
	byURL := map[string]ScriptExec{}
	for _, s := range p.Scripts {
		byURL[s.URL] = s
	}
	gtm := byURL["https://tagmgr.example/gtm.js"]
	if len(gtm.InclusionPath) != 0 {
		t.Fatal("gtm should be direct")
	}
	child := byURL["https://tracker.example/child.js"]
	if len(child.InclusionPath) != 1 || child.InclusionPath[0] != "https://tagmgr.example/gtm.js" {
		t.Fatalf("child = %+v", child)
	}
	leaf := byURL["https://deep.example/leaf.js"]
	wantPath := []string{"https://tagmgr.example/gtm.js", "https://tracker.example/child.js"}
	if len(leaf.InclusionPath) != 2 || leaf.InclusionPath[0] != wantPath[0] || leaf.InclusionPath[1] != wantPath[1] {
		t.Fatalf("leaf path = %v", leaf.InclusionPath)
	}
	if b.Jar().Get("https://www.shop.example/", "_deep") == nil {
		t.Fatal("leaf cookie missing")
	}
}

// TestInclusionPathsFromOnePage: injections share the page's path slab
// but each keeps its own path. An inline injector's hop names the page,
// and sibling injections and their children read their own chains.
func TestInclusionPathsFromOnePage(t *testing.T) {
	html := `<html><head><script>inject("https://a.example/a.js"); inject("https://b.example/b.js");</script></head><body></body></html>`
	scripts := map[string]string{
		"https://a.example/a.js": `inject("https://c.example/c.js");`,
		"https://b.example/b.js": `inject("https://d.example/d.js");`,
		"https://c.example/c.js": `let x = 1;`,
		"https://d.example/d.js": `let y = 2;`,
	}
	for _, pooled := range []bool{false, true} {
		b, err := New(Options{Internet: testWeb(html, scripts), Seed: 1, Pooling: pooled})
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Visit("https://www.shop.example/")
		if err != nil {
			t.Fatal(err)
		}
		const inline = "inline:https://www.shop.example/"
		want := map[string][]string{
			"https://a.example/a.js": {inline},
			"https://b.example/b.js": {inline},
			"https://c.example/c.js": {inline, "https://a.example/a.js"},
			"https://d.example/d.js": {inline, "https://b.example/b.js"},
		}
		got := map[string][]string{}
		for _, s := range p.Scripts {
			if !s.Inline {
				got[s.URL] = s.InclusionPath
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pooled=%v: inclusion paths = %v, want %v", pooled, got, want)
		}
		b.Release()
	}
}

// TestScriptInsertedDuringLoadDoesNotRun: the page's script list is a
// snapshot taken before the first script runs, so a <script> element a
// script inserts is not fetched or run by the load's script loop.
func TestScriptInsertedDuringLoadDoesNotRun(t *testing.T) {
	const late = "https://tracker.example/late.js"
	html := `<html><head><script src="https://tracker.example/insert.js"></script></head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/insert.js": `dom_insert("body", "script", {"id": "late", "src": "` + late + `"});`,
		late:                                `set_cookie("_late", "1");`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if p.Doc.ByID("late") == nil {
		t.Fatal("the script element was not inserted")
	}
	for _, s := range p.Scripts {
		if s.URL == late {
			t.Fatal("a script inserted during the load ran from the load's script loop")
		}
	}
	for _, r := range p.Requests {
		if r.URL == late {
			t.Fatal("a script inserted during the load was fetched")
		}
	}
}

func TestInjectionDepthBounded(t *testing.T) {
	// self-injecting script must not loop forever
	html := `<html><head><script src="https://tracker.example/loop.js"></script></head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/loop.js": `inject("https://tracker.example/loop.js");`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scripts) > 10 {
		t.Fatalf("injection loop ran %d scripts", len(p.Scripts))
	}
}

func TestInlineScriptUnattributable(t *testing.T) {
	html := `<html><head><script>set_cookie("inline_c", "v");</script></head><body></body></html>`
	b := newTestBrowser(t, testWeb(html, nil))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scripts) != 1 || !p.Scripts[0].Inline {
		t.Fatalf("scripts = %+v", p.Scripts)
	}
	if b.Jar().Get("https://www.shop.example/", "inline_c") == nil {
		t.Fatal("inline cookie missing")
	}
}

func TestHttpOnlyInvisibleToScript(t *testing.T) {
	html := `<html><head><script>
let all = get_all_cookies();
if (all["srv_session"] != null) { set_cookie("leak", "1"); }
if (all["srv_pref"] != null) { set_cookie("saw_pref", "1"); }
</script></head><body></body></html>`
	b := newTestBrowser(t, testWeb(html, nil))
	if _, err := b.Visit("https://www.shop.example/"); err != nil {
		t.Fatal(err)
	}
	if b.Jar().Get("https://www.shop.example/", "leak") != nil {
		t.Fatal("script saw HttpOnly cookie")
	}
	if b.Jar().Get("https://www.shop.example/", "saw_pref") == nil {
		t.Fatal("script missed non-HttpOnly server cookie")
	}
}

func TestCookieStoreAPI(t *testing.T) {
	html := `<html><head><script src="https://cdn.shopify-like.example/perf.js"></script></head><body></body></html>`
	scripts := map[string]string{
		"https://cdn.shopify-like.example/perf.js": `
cookiestore_set("keep_alive", "1", {"max_age": 3600});
let c = cookiestore_get("keep_alive");
if (c != null && c["value"] == "1") {
  cookiestore_set("_awl", "1." + str(now_ms()) + ".s1");
}
let awl = cookiestore_get("_awl");
if (awl == null) { cookiestore_set("keep_alive", "", {"max_age": 0 - 1}); }`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	if _, err := b.Visit("https://www.shop.example/"); err != nil {
		t.Fatal(err)
	}
	if b.Jar().Get("https://www.shop.example/", "keep_alive") == nil {
		t.Fatal("keep_alive missing")
	}
	if b.Jar().Get("https://www.shop.example/", "_awl") == nil {
		t.Fatal("_awl missing")
	}
}

func TestDeferredCallbackAttribution(t *testing.T) {
	html := `<html><head><script src="https://tracker.example/async.js"></script></head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/async.js": `defer_run(fn() { set_cookie("_async", "1"); });`,
	}

	// Default: attribution preserved.
	in := testWeb(html, scripts)
	b := newTestBrowser(t, in)
	var setters []string
	mw := func(_ *Browser, next CookieAPI) CookieAPI {
		return &recordingAPI{next: next, onSet: func(ctx AccessContext) {
			setters = append(setters, ctx.ScriptURL)
		}}
	}
	b2, err := New(Options{Internet: in, CookieMiddleware: []CookieMiddleware{mw}})
	if err != nil {
		t.Fatal(err)
	}
	_ = b
	if _, err := b2.Visit("https://www.shop.example/"); err != nil {
		t.Fatal(err)
	}
	if len(setters) != 1 || setters[0] != "https://tracker.example/async.js" {
		t.Fatalf("setters = %v", setters)
	}

	// With DropAsyncAttribution: the stack is lost.
	setters = nil
	b3, err := New(Options{Internet: in, CookieMiddleware: []CookieMiddleware{mw}, DropAsyncAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b3.Visit("https://www.shop.example/"); err != nil {
		t.Fatal(err)
	}
	if len(setters) != 1 || setters[0] != "" {
		t.Fatalf("detached setters = %v", setters)
	}
}

// recordingAPI is a minimal middleware for attribution tests.
type recordingAPI struct {
	next  CookieAPI
	onSet func(AccessContext)
}

func (r *recordingAPI) GetDocumentCookie(ctx AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	return r.next.GetDocumentCookie(ctx, dst)
}
func (r *recordingAPI) SetCookie(ctx AccessContext, src cookiejar.Source, a string) {
	r.onSet(ctx)
	r.next.SetCookie(ctx, src, a)
}
func (r *recordingAPI) StoreGet(ctx AccessContext, n string) (jsdsl.CookieRecord, bool) {
	return r.next.StoreGet(ctx, n)
}

func TestClickHandlers(t *testing.T) {
	html := `<html><head><script src="https://tracker.example/widget.js"></script></head>
<body><a href="/products">p</a></body></html>`
	scripts := map[string]string{
		"https://tracker.example/widget.js": `on_click(fn() { send("https://collect.example/click", {"e": "1"}); });`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	before := len(p.Requests)
	if n := p.Click(); n != 1 {
		t.Fatalf("Click ran %d handlers", n)
	}
	if len(p.Requests) != before+1 {
		t.Fatal("click beacon not recorded")
	}
	last := p.Requests[len(p.Requests)-1]
	if last.InitiatorScript != "https://tracker.example/widget.js" {
		t.Fatalf("click beacon initiator = %q", last.InitiatorScript)
	}
}

func TestDOMModificationFromScript(t *testing.T) {
	html := `<html><head><script src="https://tracker.example/dom.js"></script></head>
<body><div id="banner">original</div></body></html>`
	scripts := map[string]string{
		"https://tracker.example/dom.js": `
dom_set_text("banner", "SPONSORED");
dom_insert("body", "div", {"id": "ad"});`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Doc.ByID("banner").InnerText(); got != "SPONSORED" {
		t.Fatalf("banner = %q", got)
	}
	if len(p.Doc.Mutations) != 2 {
		t.Fatalf("mutations = %d", len(p.Doc.Mutations))
	}
	if p.Doc.Mutations[0].ByScript != "https://tracker.example/dom.js" {
		t.Fatalf("mutation attribution = %q", p.Doc.Mutations[0].ByScript)
	}
}

// TestDOMInsertCaseCollision inserts elements whose attribute names
// "Src" and "src" lower-case to one name: the later name in sorted
// order, "src", gives the value on every insert, whatever order the
// script map iterates in.
func TestDOMInsertCaseCollision(t *testing.T) {
	html := `<html><head><script src="https://tracker.example/dom.js"></script></head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/dom.js": `
for (k in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31]) {
  dom_insert("body", "img", {"id": "i" + str(k), "Src": "upper", "src": "lower"});
}`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 32; k++ {
		n := p.Doc.ByID(fmt.Sprintf("i%d", k))
		if n == nil {
			t.Fatalf("element i%d was not inserted", k)
		}
		if got := n.Attr("src"); got != "lower" || len(n.Attrs) != 2 {
			t.Fatalf("element i%d: src = %q with attributes %v, want \"lower\" and id", k, got, n.Attrs)
		}
	}
}

func TestIFrameIsolated(t *testing.T) {
	html := `<html><body><iframe src="https://ads.example/frame"></iframe></body></html>`
	in := testWeb(html, nil)
	in.RegisterFunc("ads.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script>set_cookie("frame_c", "1");</script></head><body></body></html>`)
	})
	b := newTestBrowser(t, in)
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Frames) != 1 {
		t.Fatalf("frames = %d", len(p.Frames))
	}
	if p.Frames[0].MainFrame() {
		t.Fatal("iframe page must not be main frame")
	}
	// The iframe's cookie went to the iframe's own site, not the
	// top-level site: it is a third-party cookie.
	if b.Jar().Get("https://www.shop.example/", "frame_c") != nil {
		t.Fatal("iframe cookie leaked into first-party jar view")
	}
	if b.Jar().Get("https://ads.example/", "frame_c") == nil {
		t.Fatal("iframe cookie missing from its own site")
	}
}

func TestScriptFetchFailureRecorded(t *testing.T) {
	html := `<html><head><script src="https://gone.example/x.js"></script></head><body></body></html>`
	b := newTestBrowser(t, testWeb(html, nil))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scripts) != 1 || p.Scripts[0].Err == nil {
		t.Fatalf("scripts = %+v", p.Scripts)
	}
	found := false
	for _, r := range p.Requests {
		if r.URL == "https://gone.example/x.js" && r.Failed {
			found = true
		}
	}
	if !found {
		t.Fatal("failed script request not marked")
	}
}

func TestScriptRuntimeErrorDoesNotAbortPage(t *testing.T) {
	html := `<html><head>
<script src="https://tracker.example/bad.js"></script>
<script src="https://tracker.example/good.js"></script>
</head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/bad.js":  `let x = "a" - 1;`,
		"https://tracker.example/good.js": `set_cookie("after_error", "1");`,
	}
	b := newTestBrowser(t, testWeb(html, scripts))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if p.Scripts[0].Err == nil {
		t.Fatal("bad.js should have errored")
	}
	if b.Jar().Get("https://www.shop.example/", "after_error") == nil {
		t.Fatal("good.js did not run after bad.js error")
	}
}

func TestRandomLinkAndNavigation(t *testing.T) {
	html := `<html><body><a href="/products">p</a></body></html>`
	b := newTestBrowser(t, testWeb(html, nil))
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	link := p.RandomLink()
	if link != "https://www.shop.example/products" {
		t.Fatalf("link = %q", link)
	}
	p2, err := b.Visit(link)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Doc.ByID("catalog") == nil {
		t.Fatal("navigation target not loaded")
	}
}

func TestVisitUnknownHostFails(t *testing.T) {
	b := newTestBrowser(t, netsim.New())
	if _, err := b.Visit("https://nowhere.example/"); err == nil {
		t.Fatal("expected error")
	}
}

func TestNewRequiresInternet(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("expected error for missing Internet")
	}
}

func TestGuardLikeMiddlewareCanFilter(t *testing.T) {
	// A middleware that hides everything demonstrates the interception
	// point CookieGuard uses.
	html := `<html><head>
<script src="https://tracker.example/setter.js"></script>
<script src="https://tracker.example/probe.js"></script>
</head><body></body></html>`
	scripts := map[string]string{
		"https://tracker.example/setter.js": `set_cookie("x", "1");`,
		"https://tracker.example/probe.js": `
let v = get_cookie("x");
if (v == null) { set_cookie("hidden", "yes"); }`,
	}
	in := testWeb(html, scripts)
	blank := func(_ *Browser, next CookieAPI) CookieAPI { return &blankReadAPI{next} }
	b, err := New(Options{Internet: in, CookieMiddleware: []CookieMiddleware{blank}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Visit("https://www.shop.example/"); err != nil {
		t.Fatal(err)
	}
	if b.Jar().Get("https://www.shop.example/", "hidden") == nil {
		t.Fatal("filtering middleware was bypassed")
	}
}

type blankReadAPI struct{ next CookieAPI }

func (a *blankReadAPI) GetDocumentCookie(ctx AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	return dst
}
func (a *blankReadAPI) SetCookie(ctx AccessContext, src cookiejar.Source, s string) {
	a.next.SetCookie(ctx, src, s)
}
func (a *blankReadAPI) StoreGet(ctx AccessContext, n string) (jsdsl.CookieRecord, bool) {
	return jsdsl.CookieRecord{}, false
}

func BenchmarkVisitSimplePage(b *testing.B) {
	html := `<html><head><script src="https://tracker.example/analytics.js"></script></head>
<body><div id="x">content</div></body></html>`
	scripts := map[string]string{
		"https://tracker.example/analytics.js": `
set_cookie("_ga", "GA1.1." + rand_id(9) + "." + str(now_ms()));
send("https://collect.example/g", {"ga": get_cookie("_ga")});`,
	}
	in := testWeb(html, scripts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := New(Options{Internet: in, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := br.Visit("https://www.shop.example/"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestArtifactCacheTemplateIsolation: with a shared artifact cache, a
// page's script mutations must land on the page's private clone —
// revisits parse nothing but still start from the pristine template.
func TestArtifactCacheTemplateIsolation(t *testing.T) {
	html := `<html><head>
<script src="https://tracker.example/mutate.js"></script>
</head><body><div id="status">loading</div><div id="main">hello</div></body></html>`
	scripts := map[string]string{
		"https://tracker.example/mutate.js": `
dom_set_text("status", "ready");
dom_insert("main", "img", {"id": "pixel"});
dom_remove("main");`,
	}
	in := testWeb(html, scripts)
	cache := artifact.New()

	visit := func(seed uint64) *Page {
		b, err := New(Options{Internet: in, Seed: seed, Artifacts: cache})
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Visit("https://www.shop.example/")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p1 := visit(1)
	p2 := visit(2)

	for i, p := range []*Page{p1, p2} {
		if st := p.Doc.ByID("status"); st == nil || st.InnerText() != "ready" {
			t.Fatalf("visit %d: script mutation missing from the page's own DOM", i+1)
		}
		if p.Doc.ByID("main") != nil {
			t.Fatalf("visit %d: removed element still present", i+1)
		}
		if len(p.Doc.Mutations) != 3 {
			t.Fatalf("visit %d: mutations = %d, want 3", i+1, len(p.Doc.Mutations))
		}
	}
	if p1.Doc.Root == p2.Doc.Root {
		t.Fatal("two visits share one DOM tree")
	}

	// The cached template itself must still be pristine.
	stats := cache.Stats()
	if stats.DOMHits == 0 || stats.ProgramHits == 0 {
		t.Fatalf("second visit did not reuse cached artifacts: %+v", stats)
	}
	fresh, err := New(Options{Internet: in, Seed: 4, Artifacts: cache})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := fresh.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	if p3.Doc.ByID("status") == nil || p3.Doc.ByID("status").InnerText() != "ready" {
		t.Fatal("third visit behaves differently from the first two")
	}
}

// TestArtifactCacheVisitEquivalence: a cached and an uncached browser
// visiting the same page must observe identical pages — scripts, cookie
// operations, requests, and virtual-clock timings.
func TestArtifactCacheVisitEquivalence(t *testing.T) {
	html := `<html><head>
<script src="https://tracker.example/analytics.js"></script>
<script>set_cookie("inline_seen", "1");</script>
</head><body><div id="status">loading</div><a href="/products">go</a></body></html>`
	scripts := map[string]string{
		"https://tracker.example/analytics.js": `
set_cookie("_ga", "GA1.1.fixed");
dom_set_text("status", "ready");
send("https://collect.example/p", {"c": get_cookie("_ga")});`,
	}

	run := func(cached bool) *Page {
		in := testWeb(html, scripts)
		opts := Options{Internet: in, Seed: 9}
		if cached {
			c := artifact.New()
			opts.Artifacts = c
		}
		b, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Two navigations so the cached run actually hits.
		if _, err := b.Visit("https://www.shop.example/"); err != nil {
			t.Fatal(err)
		}
		p, err := b.Visit("https://www.shop.example/")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	pc, pu := run(true), run(false)
	if pc.Timing != pu.Timing {
		t.Fatalf("timings diverge: cached=%+v uncached=%+v", pc.Timing, pu.Timing)
	}
	if len(pc.Scripts) != len(pu.Scripts) || len(pc.Requests) != len(pu.Requests) {
		t.Fatalf("observation counts diverge: scripts %d/%d requests %d/%d",
			len(pc.Scripts), len(pu.Scripts), len(pc.Requests), len(pu.Requests))
	}
	for i := range pc.Scripts {
		if pc.Scripts[i].Steps != pu.Scripts[i].Steps {
			t.Fatalf("script %d steps diverge: %d vs %d", i, pc.Scripts[i].Steps, pu.Scripts[i].Steps)
		}
	}
}
