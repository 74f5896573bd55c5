package cookiejar

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cookieguard/internal/vclock"
)

const site = "https://www.example.com/"

func newJar() (*Jar, *vclock.Clock) {
	c := vclock.New()
	return New(c), c
}

// mustURL parses a test URL, as the browser does once per fetch before
// handing it to SetFromHeader.
func mustURL(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// docCookie is the document.cookie string for a page at rawURL: the
// pairs DocumentCookiePairs lists, joined as "a=1; b=2".
func docCookie(j *Jar, rawURL string) string {
	var b strings.Builder
	for i, pr := range j.DocumentCookiePairs(rawURL, nil) {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(pr.Name + "=" + pr.Value)
	}
	return b.String()
}

func TestSetFromDocumentAndRead(t *testing.T) {
	j, _ := newJar()
	if k := j.SetFromScript(site, "_ga=GA1.1.123.456", SourceDocument); k != ChangeCreated {
		t.Fatalf("kind = %v", k)
	}
	if got := docCookie(j, site); got != "_ga=GA1.1.123.456" {
		t.Fatalf("document.cookie = %q", got)
	}
}

func TestHttpOnlyInvisibleToScripts(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, site), "session=secret; HttpOnly")
	j.SetFromScript(site, "visible=yes", SourceDocument)
	// The HttpOnly cookie is stored...
	all := j.All()
	if len(all) != 2 || all[0].Name != "session" || !all[0].HttpOnly {
		t.Fatalf("All = %+v, want the HttpOnly session cookie stored", all)
	}
	// ...but no script read sees it.
	if got := docCookie(j, site); got != "visible=yes" {
		t.Fatalf("document.cookie = %q (HttpOnly leaked?)", got)
	}
	if c := j.Get(site, "session"); c != nil {
		t.Fatalf("Get(session) = %+v (HttpOnly leaked?)", c)
	}
}

func TestScriptCannotMintHttpOnly(t *testing.T) {
	j, _ := newJar()
	j.SetFromScript(site, "sneaky=1; HttpOnly", SourceDocument)
	if got := docCookie(j, site); got != "sneaky=1" {
		t.Fatalf("document.cookie = %q; scripts must not create HttpOnly cookies", got)
	}
}

func TestOverwritePreservesCreationTime(t *testing.T) {
	j, clk := newJar()
	j.SetFromScript(site, "k=v1", SourceDocument)
	created := j.All()[0].Created
	clk.Advance(time.Minute)
	if k := j.SetFromScript(site, "k=v2", SourceDocument); k != ChangeOverwritten {
		t.Fatalf("kind = %v", k)
	}
	c := j.All()[0]
	if c.Value != "v2" {
		t.Fatalf("Value = %q", c.Value)
	}
	if !c.Created.Equal(created) {
		t.Fatal("overwrite must preserve creation time")
	}
}

func TestDeleteViaExpiredWrite(t *testing.T) {
	j, _ := newJar()
	j.SetFromScript(site, "k=v", SourceDocument)
	if k := j.SetFromScript(site, "k=; Max-Age=0", SourceDocument); k != ChangeDeleted {
		t.Fatalf("kind = %v", k)
	}
	if j.Len() != 0 {
		t.Fatal("cookie not deleted")
	}
	// Deleting a non-existent cookie is a rejected change.
	if k := j.SetFromScript(site, "ghost=; Max-Age=0", SourceDocument); k != ChangeRejected {
		t.Fatalf("kind = %v", k)
	}
}

func TestExpiryOverTime(t *testing.T) {
	j, clk := newJar()
	j.SetFromScript(site, "k=v; Max-Age=60", SourceDocument)
	if j.Len() != 1 {
		t.Fatal("cookie should exist")
	}
	clk.Advance(61 * time.Second)
	if j.Len() != 0 {
		t.Fatal("cookie should have expired")
	}
	if got := docCookie(j, site); got != "" {
		t.Fatalf("document.cookie after expiry = %q", got)
	}
}

func TestDomainCookieVisibleOnSubdomains(t *testing.T) {
	j, _ := newJar()
	j.SetFromScript("https://www.example.com/", "d=1; Domain=example.com", SourceDocument)
	if got := docCookie(j, "https://shop.example.com/"); got != "d=1" {
		t.Fatalf("domain cookie not visible on sibling subdomain: %q", got)
	}
	if got := docCookie(j, "https://example.org/"); got != "" {
		t.Fatalf("domain cookie leaked cross-site: %q", got)
	}
}

func TestHostOnlyCookieNotVisibleOnSubdomains(t *testing.T) {
	j, _ := newJar()
	j.SetFromScript("https://example.com/", "h=1", SourceDocument)
	if got := docCookie(j, "https://www.example.com/"); got != "" {
		t.Fatalf("host-only cookie visible on subdomain: %q", got)
	}
	if got := docCookie(j, "https://example.com/"); got != "h=1" {
		t.Fatalf("host-only cookie missing on exact host: %q", got)
	}
}

func TestCannotSetForUnrelatedDomain(t *testing.T) {
	j, _ := newJar()
	if k := j.SetFromScript("https://evil.com/", "x=1; Domain=example.com", SourceDocument); k != ChangeRejected {
		t.Fatalf("cross-site domain set should be rejected, got %v", k)
	}
	if k := j.SetFromScript("https://www.example.com/", "x=1; Domain=com", SourceDocument); k != ChangeRejected {
		t.Fatalf("public-suffix domain set should be rejected, got %v", k)
	}
}

func TestSecureCookieRequiresHTTPS(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/"), "s=1; Secure")
	if got := docCookie(j, "http://example.com/"); got != "" {
		t.Fatalf("secure cookie visible over http: %q", got)
	}
	if got := docCookie(j, "https://example.com/"); got != "s=1" {
		t.Fatalf("secure cookie missing over https: %q", got)
	}
}

func TestPathScoping(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/app/index"), "p=1; Path=/app")
	if got := docCookie(j, "https://example.com/app/page"); got != "p=1" {
		t.Fatalf("path cookie missing: %q", got)
	}
	if got := docCookie(j, "https://example.com/other"); got != "" {
		t.Fatalf("path cookie leaked: %q", got)
	}
}

func TestDefaultPathFromRequest(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/a/b/page"), "p=1")
	if got := docCookie(j, "https://example.com/a/b/other"); got != "p=1" {
		t.Fatalf("default-path cookie missing: %q", got)
	}
	if got := docCookie(j, "https://example.com/a"); got != "" {
		t.Fatalf("default-path cookie leaked above its directory: %q", got)
	}
}

func TestCookieHeaderOrdering(t *testing.T) {
	j, clk := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/app/x"), "deep=1; Path=/app")
	clk.Advance(time.Second)
	j.SetFromHeader(mustURL(t, "https://example.com/"), "shallow=1; Path=/")
	// Longer path first per RFC 6265 §5.4, although deep is older.
	if got := docCookie(j, "https://example.com/app/x"); got != "deep=1; shallow=1" {
		t.Fatalf("ordering = %q", got)
	}
}

// TestExpiredCookieDoesNotShadowWrite pins that an expired cookie is gone
// whether or not a read purged it: with no read between its expiry and
// the next write, that write creates a fresh cookie instead of
// overwriting the dead one and inheriting its creation time (and so its
// place in document.cookie order).
func TestExpiredCookieDoesNotShadowWrite(t *testing.T) {
	t.Run("write", func(t *testing.T) {
		j, clk := newJar()
		var got []Change
		j.Observe(func(ch Change) { got = append(got, ch) })
		j.SetFromScript(site, "x=1; Max-Age=1", SourceDocument)
		clk.Advance(2 * time.Second)
		if k := j.SetFromScript(site, "x=2", SourceDocument); k != ChangeCreated {
			t.Fatalf("kind = %v, want %v", k, ChangeCreated)
		}
		last := got[len(got)-1]
		if last.Previous != nil {
			t.Fatalf("Previous = %+v, want nil", last.Previous)
		}
		if !last.Cookie.Created.Equal(clk.Now()) {
			t.Fatalf("Created = %v, want the write's time %v", last.Cookie.Created, clk.Now())
		}
		if got := docCookie(j, site); got != "x=2" {
			t.Fatalf("document.cookie = %q", got)
		}
	})
	t.Run("expired write", func(t *testing.T) {
		j, clk := newJar()
		j.SetFromScript(site, "x=1; Max-Age=1", SourceDocument)
		clk.Advance(2 * time.Second)
		if k := j.SetFromScript(site, "x=; Max-Age=0", SourceDocument); k != ChangeRejected {
			t.Fatalf("kind = %v, want %v", k, ChangeRejected)
		}
		if n := j.Len(); n != 0 {
			t.Fatalf("Len = %d, want 0", n)
		}
	})
}

func TestGetAndDelete(t *testing.T) {
	j, _ := newJar()
	j.SetFromScript(site, "_fbp=fb.0.1746746266109.868308499845957651", SourceDocument)
	c := j.Get(site, "_fbp")
	if c == nil || c.Value != "fb.0.1746746266109.868308499845957651" {
		t.Fatalf("Get = %+v", c)
	}
	c.Value = "changed"
	if c := j.Get(site, "_fbp"); c.Value != "fb.0.1746746266109.868308499845957651" {
		t.Fatalf("writing Get's result changed the stored cookie to %+v", c)
	}
	if j.Get(site, "missing") != nil {
		t.Fatal("Get(missing) should be nil")
	}
	// A cookieStore delete is an expired write.
	if k := j.SetFromScript(site, "_fbp=; Max-Age=0", SourceCookieStore); k != ChangeDeleted {
		t.Fatalf("expired write: kind = %v, want %v", k, ChangeDeleted)
	}
	if j.Len() != 0 {
		t.Fatal("cookie survives the expired write")
	}
	if k := j.SetFromScript(site, "_fbp=; Max-Age=0", SourceCookieStore); k != ChangeRejected {
		t.Fatalf("second expired write: kind = %v, want %v", k, ChangeRejected)
	}
}

func TestDeleteDomainCookie(t *testing.T) {
	j, _ := newJar()
	j.SetFromScript("https://www.example.com/", "d=1; Domain=example.com", SourceDocument)
	if k := j.SetFromScript("https://www.example.com/", "d=; Domain=example.com; Max-Age=0", SourceCookieStore); k != ChangeDeleted {
		t.Fatalf("expired write of domain cookie: kind = %v, want %v", k, ChangeDeleted)
	}
	if j.Len() != 0 {
		t.Fatal("domain cookie survives the expired write")
	}
}

func TestObserverReceivesChanges(t *testing.T) {
	j, _ := newJar()
	var got []Change
	j.Observe(func(ch Change) { got = append(got, ch) })
	j.SetFromScript(site, "a=1", SourceDocument)
	j.SetFromScript(site, "a=2", SourceDocument)
	j.SetFromScript(site, "a=; Max-Age=0", SourceDocument)
	if len(got) != 3 {
		t.Fatalf("observer saw %d changes", len(got))
	}
	if got[0].Kind != ChangeCreated || got[1].Kind != ChangeOverwritten || got[2].Kind != ChangeDeleted {
		t.Fatalf("kinds = %v %v %v", got[0].Kind, got[1].Kind, got[2].Kind)
	}
	if got[1].Previous == nil || got[1].Previous.Value != "1" {
		t.Fatalf("overwrite Previous = %+v", got[1].Previous)
	}
	if got[2].Previous == nil || got[2].Previous.Value != "2" {
		t.Fatalf("delete Previous = %+v", got[2].Previous)
	}
}

func TestAllDeterministicOrder(t *testing.T) {
	j, _ := newJar()
	j.SetFromScript(site, "b=2", SourceDocument)
	j.SetFromScript(site, "a=1", SourceDocument)
	j.SetFromScript("https://www.example.com/", "c=3; Domain=example.com", SourceDocument)
	all := j.All()
	if len(all) != 3 {
		t.Fatalf("All len = %d", len(all))
	}
	if all[0].Name != "c" || all[1].Name != "a" || all[2].Name != "b" {
		t.Fatalf("order = %s %s %s", all[0].Name, all[1].Name, all[2].Name)
	}
}

func TestInvalidURLRejected(t *testing.T) {
	j, _ := newJar()
	if k := j.SetFromScript(":// bad", "a=1", SourceDocument); k != ChangeRejected {
		t.Fatalf("kind = %v", k)
	}
	if docCookie(j, ":// bad") != "" {
		t.Fatal("invalid URL should read empty")
	}
}

// Property: writing n distinct cookie names yields n cookies, and the
// document.cookie string contains each pair exactly once.
func TestJarSetGetProperty(t *testing.T) {
	f := func(names []uint8) bool {
		j, _ := newJar()
		uniq := map[string]bool{}
		for _, n := range names {
			name := fmt.Sprintf("c%d", n)
			uniq[name] = true
			j.SetFromScript(site, name+"=v", SourceDocument)
		}
		if j.Len() != len(uniq) {
			return false
		}
		doc := "; " + docCookie(j, site) + ";"
		for name := range uniq {
			if countOccurrences(doc, " "+name+"=v;") != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func countOccurrences(s, sub string) int {
	n := 0
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			n++
		}
	}
	return n
}

func BenchmarkDocumentCookie(b *testing.B) {
	j, _ := newJar()
	for i := 0; i < 30; i++ {
		j.SetFromScript(site, fmt.Sprintf("c%d=value%d", i, i), SourceDocument)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = docCookie(j, site)
	}
}

func BenchmarkSetFromDocument(b *testing.B) {
	j, _ := newJar()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.SetFromScript(site, "k=v; Path=/; Max-Age=3600", SourceDocument)
	}
}

// TestSetFromDocumentReusesPageURL pins the page-URL reuse: scripts on one
// page write through the same page URL, so a write after the first one on
// that URL skips url.Parse. The pages have fragments, so they are not
// canonical (urlutil.ParseCanonical) and a fresh parse takes url.Parse.
// Both loops overwrite the same cookie, so only the URL parse differs
// between them.
func TestSetFromDocumentReusesPageURL(t *testing.T) {
	j, _ := newJar()
	pages := [2]string{site + "a#top", site + "b#top"}
	i := 0
	alternating := testing.AllocsPerRun(100, func() {
		i++
		j.SetFromScript(pages[i%2], "k=v; Path=/", SourceDocument)
	})
	same := testing.AllocsPerRun(100, func() {
		j.SetFromScript(pages[0], "k=v; Path=/", SourceDocument)
	})
	if same >= alternating {
		t.Errorf("A write on a repeated page URL: %v allocs, on a new one: %v; want fewer", same, alternating)
	}
	if got := docCookie(j, pages[0]); got != "k=v" {
		t.Fatalf("document.cookie = %q", got)
	}
}

// TestConcurrentPageURLs shares one jar between goroutines that write and
// read through different page URLs, so the reused page-URL parse is
// exercised across goroutines: each must only ever see its own host's
// cookie.
func TestConcurrentPageURLs(t *testing.T) {
	j, _ := newJar()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			page := fmt.Sprintf("https://g%d.example.com/p", g)
			want := fmt.Sprintf("k=%d", g)
			for i := 0; i < 200; i++ {
				j.SetFromScript(page, want, SourceDocument)
				if got := docCookie(j, page); got != want {
					t.Errorf("document.cookie of %q = %q, want %q", page, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
