package urlutil

import (
	"maps"
	"net/netip"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cookieguard/internal/webgen"
)

// resolveRefOracle is ResolveRef computed by net/url alone: the path every
// ref took before the canonical fast path, and the one non-canonical refs
// still take.
func resolveRefOracle(base *url.URL, ref string) string {
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return base.ResolveReference(r).String()
}

// withParamsOracle is WithParams computed by net/url alone.
func withParamsOracle(base string, params map[string]string) string {
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	q := u.Query()
	for k, v := range params {
		q.Set(k, v)
	}
	u.RawQuery = q.Encode()
	return u.String()
}

var quotedURL = regexp.MustCompile(`"(https?://[^"]+)"`)

// webgenURLs returns the URLs the synthetic web makes a browser resolve:
// landing pages, script srcs (direct, tag-manager containers, cloaked)
// and the beacon endpoints quoted in service scripts.
func webgenURLs() []string {
	w := webgen.Build(webgen.DefaultConfig(40))
	seen := map[string]bool{}
	var out []string
	add := func(u string) {
		if u != "" && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	for _, s := range w.Sites {
		add(s.URL)
		add(webgen.ContainerURL(w, s))
		add(webgen.CloakedScriptURL(s))
		for _, svc := range append(append([]*webgen.Service(nil), s.DirectServices...), s.InjectedServices...) {
			add(svc.URL())
		}
	}
	for _, svc := range w.Services {
		add(svc.URL())
		for _, m := range quotedURL.FindAllStringSubmatch(svc.Source, -1) {
			add(m[1])
		}
	}
	return out
}

// edgeRefs are the shapes the canonical check must get right: each is
// either canonical or differs from net/url's output in one of the ways the
// fast path must not mistake for canonical.
var edgeRefs = []string{
	"HTTPS://www.example.com/a.js",
	"Http://www.example.com/a.js",
	"https://WWW.Example.COM/a.js",
	"https://example.com:8443/x.js",
	"https://example.com:/x.js",
	"https://example.com:443/x.js",
	"https://example.com:8x/x.js",
	"https://user:pw@example.com/x.js",
	"https://@example.com/x.js",
	"https://example.com/a%2Fb.js",
	"https://example.com/%7Euser/",
	"https://ex%41mple.com/",
	"https://example.com/a/./b.js",
	"https://example.com/a/../b.js",
	"https://example.com/..",
	"https://example.com/a/.",
	"https://example.com/.hidden/..x",
	"https://example.com//x.js",
	"https://example.com///",
	"https:///x.js",
	"https://example.com/x.js#frag",
	"https://example.com/x.js#",
	"https://example.com",
	"https://example.com?",
	"https://example.com/x?",
	"https://example.com/x??",
	"https://example.com/x?a=1&b=%zz;c",
	"https://example.com/x?a b",
	"https://example.com/a b.js",
	"https://example.com/a!b'(c)*.js",
	"https://example.com/$&+,:;=@~_-.js",
	"https://[2001:db8::1]/x.js",
	"https://[2001:db8::1]:8080/x.js",
	"http://127.0.0.1:8080/x",
	"ftp://example.com/x.js",
	"//cdn.example.net/x.js",
	"/rel/x.js",
	"rel.js",
	"../up.js",
	"./here.js",
	"?q=1",
	"#f",
	"",
	"javascript:void(0)",
	"data:text/plain,x",
	"https://example.com/\x7f",
	"https://exa\tmple.com/",
	"https://example.com/é.js",
}

var edgeBases = []string{
	"https://www.site00001.com/",
	"https://www.shop.example/dir/page?x=1#top",
	"http://example.com",
	"https://user:pw@www.example.com/",
	"https://www.example.com:8443/a",
	"https://[2001:db8::1]/x",
	"https://ex%41mple.com/",
	"HTTPS://WWW.Example.COM/",
	"http:///nohost",
	"ftp://example.com/",
	"mailto:user@example.com",
	"/relative/base",
}

// rootRelativeRefs are the root-relative refs the synthetic web's pages
// resolve, plus the shapes around them the root-relative fast path must
// send to net/url.
var rootRelativeRefs = []string{
	"/assets/app.js",
	"/style.css",
	"/logo.png",
	"/",
	"/about",
	"/products",
	"/login",
	"/a?",
	"/a?x=1&y=2",
	"/a#f",
	"/a/../b",
	"/./a",
	"/a//b",
	"/%7Ea",
	"/a b",
	"/é",
	"/:a",
	"//host/x",
	"///x",
}

func FuzzResolveRef(f *testing.F) {
	for _, ref := range webgenURLs() {
		f.Add(edgeBases[0], ref)
	}
	refs := slices.Concat(edgeRefs, rootRelativeRefs)
	for _, base := range edgeBases {
		for _, ref := range refs {
			f.Add(base, ref)
		}
	}
	f.Fuzz(func(t *testing.T, base, ref string) {
		b, err := url.Parse(base)
		if err != nil {
			return // ResolveRef takes an already parsed base
		}
		if got, want := ResolveRef(b, ref), resolveRefOracle(b, ref); got != want {
			t.Fatalf("ResolveRef(%q, %q) = %q, net/url gives %q", base, ref, got, want)
		}
	})
}

func FuzzWithParams(f *testing.F) {
	for _, base := range webgenURLs() {
		f.Add(base, uint8(2), "ga", "GA1.2.123.456", "u", "https://www.site00001.com/")
	}
	for _, base := range append(edgeRefs, edgeBases...) {
		f.Add(base, uint8(0), "", "", "", "")
		f.Add(base, uint8(1), "a b", "x&y=z", "", "")
		f.Add(base, uint8(2), "b", "2", "a", "é%/?#")
		f.Add(base, uint8(2), "k", "", "", "v")
		f.Add(base, uint8(2), "~-._", "a+b c", "\x00\xff", "\x7f\x80 ")
	}
	f.Fuzz(func(t *testing.T, base string, n uint8, k1, v1, k2, v2 string) {
		params := map[string]string{}
		if n%3 >= 1 {
			params[k1] = v1
		}
		if n%3 == 2 {
			params[k2] = v2
		}
		keys := slices.Sorted(maps.Keys(params))
		vals := make([]string, len(keys))
		for i, k := range keys {
			vals[i] = params[k]
		}
		if got, want := WithParams(base, keys, vals), withParamsOracle(base, params); got != want {
			t.Fatalf("WithParams(%q, %q, %q) = %q, net/url gives %q", base, keys, vals, got, want)
		}
	})
}

func FuzzParseOrigin(f *testing.F) {
	for _, raw := range webgenURLs() {
		f.Add(raw)
	}
	for _, raw := range append(edgeRefs,
		"https://[fe80::1%25en0]:8443/",
		"https://[fe80::1%25EN%200]/",
		"https://a%25b.example/",
		"https://[[a]]/",
		"https://[example.com]/",
		"https://[1.2.3.4]/",
		"https://[::ffff:1.2.3.4]/",
		"https://[]/",
		"https://:80/",
		"https://a:b:1/",
	) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		o, err := ParseOrigin(raw)
		if err != nil {
			return
		}
		s := o.String()
		// net/url from Go 1.24.8 on rejects a bracketed host that is not
		// an IPv6 address, so String may bracket nothing else.
		if strings.HasPrefix(strings.TrimPrefix(s, o.Scheme+"://"), "[") {
			if a, err := netip.ParseAddr(o.Host); err != nil || !a.Is6() {
				t.Fatalf("ParseOrigin(%q) = %+v renders %q, a bracketed host that is not IPv6", raw, o, s)
			}
		}
		back, err := ParseOrigin(s)
		if err != nil || back != o {
			t.Fatalf("ParseOrigin(%q) = %+v renders %q, which parses to %+v (err %v)", raw, o, s, back, err)
		}
	})
}

func FuzzParseCanonical(f *testing.F) {
	for _, raw := range webgenURLs() {
		f.Add(raw)
	}
	for _, raw := range append(edgeRefs,
		"https://h?",
		"http://h:80/",
		"https://h/a;b,c/d;e",
		"https://h/;,?x=;,",
		"https://h/p?q#frag",
		"https://h?a?",
		"https://h/p?a=1&b=%zz",
		"https://cdn.tracker.example/lib/app.js?v=3",
	) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var got url.URL
		if !ParseCanonical(&got, raw) {
			return
		}
		want, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("ParseCanonical accepted %q, which url.Parse rejects: %v", raw, err)
		}
		if got != *want {
			t.Fatalf("ParseCanonical(%q) = %#v, url.Parse gives %#v", raw, got, *want)
		}
	})
}

// TestWebgenURLsTakeFastPath checks that the canonical fast path covers
// every URL the synthetic web resolves and sends to, so the crawl does not
// fall back to net/url for them.
func TestWebgenURLsTakeFastPath(t *testing.T) {
	urls := webgenURLs()
	if len(urls) < 50 {
		t.Fatalf("only %d webgen URLs", len(urls))
	}
	for _, u := range urls {
		if ok, query := canonicalAbsolute(u); !ok || query {
			t.Errorf("canonicalAbsolute(%q) = %v, %v; want canonical without a query", u, ok, query)
		}
	}
}

var sink string

func TestFastPathAllocs(t *testing.T) {
	base, _ := url.Parse("https://www.site00001.com/")
	ref := "https://cdn.tracker.example/lib/app.js?v=3"
	if n := testing.AllocsPerRun(100, func() { sink = ResolveRef(base, ref) }); n != 0 {
		t.Errorf("ResolveRef on a canonical absolute ref: %v allocs, want 0", n)
	}
	if sink != ref {
		t.Errorf("ResolveRef = %q, want %q", sink, ref)
	}
	if n := testing.AllocsPerRun(100, func() { sink = Hostname("") }); n != 0 {
		t.Errorf("Hostname(\"\"): %v allocs, want 0", n)
	}
	rel, want := "/assets/app.js", "https://www.site00001.com/assets/app.js"
	if n := testing.AllocsPerRun(100, func() { sink = ResolveRef(base, rel) }); n > 1 {
		t.Errorf("ResolveRef on a root-relative ref: %v allocs, want at most 1", n)
	}
	if sink != want {
		t.Errorf("ResolveRef(%q) = %q, want %q", rel, sink, want)
	}
	var u url.URL
	if n := testing.AllocsPerRun(100, func() { ParseCanonical(&u, ref) }); n != 0 {
		t.Errorf("ParseCanonical on a canonical absolute URL: %v allocs, want 0", n)
	}
	if u.Host != "cdn.tracker.example" || u.Path != "/lib/app.js" || u.RawQuery != "v=3" {
		t.Errorf("ParseCanonical(%q) = %#v", ref, u)
	}
}
