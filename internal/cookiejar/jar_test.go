package cookiejar

import (
	"fmt"
	"net/url"
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
// handing it to CookieHeader and SetFromHeader.
func mustURL(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestSetFromDocumentAndRead(t *testing.T) {
	j, _ := newJar()
	if k := j.SetFromDocument(site, "_ga=GA1.1.123.456"); k != ChangeCreated {
		t.Fatalf("kind = %v", k)
	}
	if got := j.DocumentCookie(site); got != "_ga=GA1.1.123.456" {
		t.Fatalf("DocumentCookie = %q", got)
	}
}

func TestHttpOnlyInvisibleToScripts(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, site), "session=secret; HttpOnly")
	j.SetFromDocument(site, "visible=yes")
	if got := j.DocumentCookie(site); got != "visible=yes" {
		t.Fatalf("DocumentCookie = %q (HttpOnly leaked?)", got)
	}
	// But the Cookie header for HTTP requests includes it.
	hdr := j.CookieHeader(site, mustURL(t, site))
	if hdr != "session=secret; visible=yes" && hdr != "visible=yes; session=secret" {
		t.Fatalf("CookieHeader = %q", hdr)
	}
}

func TestScriptCannotMintHttpOnly(t *testing.T) {
	j, _ := newJar()
	j.SetFromDocument(site, "sneaky=1; HttpOnly")
	if got := j.DocumentCookie(site); got != "sneaky=1" {
		t.Fatalf("DocumentCookie = %q; scripts must not create HttpOnly cookies", got)
	}
}

func TestOverwritePreservesCreationTime(t *testing.T) {
	j, clk := newJar()
	j.SetFromDocument(site, "k=v1")
	created := j.All()[0].Created
	clk.Advance(time.Minute)
	if k := j.SetFromDocument(site, "k=v2"); k != ChangeOverwritten {
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
	j.SetFromDocument(site, "k=v")
	if k := j.SetFromDocument(site, "k=; Max-Age=0"); k != ChangeDeleted {
		t.Fatalf("kind = %v", k)
	}
	if j.Len() != 0 {
		t.Fatal("cookie not deleted")
	}
	// Deleting a non-existent cookie is a rejected change.
	if k := j.SetFromDocument(site, "ghost=; Max-Age=0"); k != ChangeRejected {
		t.Fatalf("kind = %v", k)
	}
}

func TestExpiryOverTime(t *testing.T) {
	j, clk := newJar()
	j.SetFromDocument(site, "k=v; Max-Age=60")
	if j.Len() != 1 {
		t.Fatal("cookie should exist")
	}
	clk.Advance(61 * time.Second)
	if j.Len() != 0 {
		t.Fatal("cookie should have expired")
	}
	if got := j.DocumentCookie(site); got != "" {
		t.Fatalf("DocumentCookie after expiry = %q", got)
	}
}

func TestDomainCookieVisibleOnSubdomains(t *testing.T) {
	j, _ := newJar()
	j.SetFromDocument("https://www.example.com/", "d=1; Domain=example.com")
	if got := j.DocumentCookie("https://shop.example.com/"); got != "d=1" {
		t.Fatalf("domain cookie not visible on sibling subdomain: %q", got)
	}
	if got := j.DocumentCookie("https://example.org/"); got != "" {
		t.Fatalf("domain cookie leaked cross-site: %q", got)
	}
}

func TestHostOnlyCookieNotVisibleOnSubdomains(t *testing.T) {
	j, _ := newJar()
	j.SetFromDocument("https://example.com/", "h=1")
	if got := j.DocumentCookie("https://www.example.com/"); got != "" {
		t.Fatalf("host-only cookie visible on subdomain: %q", got)
	}
	if got := j.DocumentCookie("https://example.com/"); got != "h=1" {
		t.Fatalf("host-only cookie missing on exact host: %q", got)
	}
}

func TestCannotSetForUnrelatedDomain(t *testing.T) {
	j, _ := newJar()
	if k := j.SetFromDocument("https://evil.com/", "x=1; Domain=example.com"); k != ChangeRejected {
		t.Fatalf("cross-site domain set should be rejected, got %v", k)
	}
	if k := j.SetFromDocument("https://www.example.com/", "x=1; Domain=com"); k != ChangeRejected {
		t.Fatalf("public-suffix domain set should be rejected, got %v", k)
	}
}

func TestSecureCookieRequiresHTTPS(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/"), "s=1; Secure")
	if got := j.DocumentCookie("http://example.com/"); got != "" {
		t.Fatalf("secure cookie visible over http: %q", got)
	}
	if got := j.DocumentCookie("https://example.com/"); got != "s=1" {
		t.Fatalf("secure cookie missing over https: %q", got)
	}
}

func TestPathScoping(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/app/index"), "p=1; Path=/app")
	if got := j.DocumentCookie("https://example.com/app/page"); got != "p=1" {
		t.Fatalf("path cookie missing: %q", got)
	}
	if got := j.DocumentCookie("https://example.com/other"); got != "" {
		t.Fatalf("path cookie leaked: %q", got)
	}
}

func TestDefaultPathFromRequest(t *testing.T) {
	j, _ := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/a/b/page"), "p=1")
	if got := j.DocumentCookie("https://example.com/a/b/other"); got != "p=1" {
		t.Fatalf("default-path cookie missing: %q", got)
	}
	if got := j.DocumentCookie("https://example.com/a"); got != "" {
		t.Fatalf("default-path cookie leaked above its directory: %q", got)
	}
}

func TestCookieHeaderOrdering(t *testing.T) {
	j, clk := newJar()
	j.SetFromHeader(mustURL(t, "https://example.com/app/x"), "deep=1; Path=/app")
	clk.Advance(time.Second)
	j.SetFromHeader(mustURL(t, "https://example.com/"), "shallow=1; Path=/")
	// Longer path first per RFC 6265 §5.4.
	if got := j.CookieHeader("https://example.com/app/x", mustURL(t, "https://example.com/app/x")); got != "deep=1; shallow=1" {
		t.Fatalf("ordering = %q", got)
	}
}

func TestGetAndDelete(t *testing.T) {
	j, _ := newJar()
	j.SetFromDocument(site, "_fbp=fb.0.1746746266109.868308499845957651")
	c := j.Get(site, "_fbp")
	if c == nil || c.Value != "fb.0.1746746266109.868308499845957651" {
		t.Fatalf("Get = %+v", c)
	}
	if j.Get(site, "missing") != nil {
		t.Fatal("Get(missing) should be nil")
	}
	if !j.Delete(site, "_fbp") {
		t.Fatal("Delete returned false")
	}
	if j.Len() != 0 {
		t.Fatal("cookie survives Delete")
	}
	if j.Delete(site, "_fbp") {
		t.Fatal("second Delete should return false")
	}
}

func TestDeleteDomainCookie(t *testing.T) {
	j, _ := newJar()
	j.SetFromDocument("https://www.example.com/", "d=1; Domain=example.com")
	if !j.Delete("https://www.example.com/", "d") {
		t.Fatal("Delete of domain cookie failed")
	}
	if j.Len() != 0 {
		t.Fatal("domain cookie survives Delete")
	}
}

func TestSetFromCookieStore(t *testing.T) {
	j, clk := newJar()
	k := j.SetFromCookieStore(site, &Cookie{
		Name: "keep_alive", Value: "xyz", Expires: clk.Now().Add(time.Hour),
	})
	if k != ChangeCreated {
		t.Fatalf("kind = %v", k)
	}
	if got := j.Get(site, "keep_alive"); got == nil || got.Value != "xyz" {
		t.Fatalf("Get = %+v", got)
	}
	if k := j.SetFromCookieStore(site, nil); k != ChangeRejected {
		t.Fatal("nil cookie must be rejected")
	}
}

func TestObserverReceivesChanges(t *testing.T) {
	j, _ := newJar()
	var got []Change
	j.Observe(func(ch Change) { got = append(got, ch) })
	j.SetFromDocument(site, "a=1")
	j.SetFromDocument(site, "a=2")
	j.SetFromDocument(site, "a=; Max-Age=0")
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
	j.SetFromDocument(site, "b=2")
	j.SetFromDocument(site, "a=1")
	j.SetFromDocument("https://www.example.com/", "c=3; Domain=example.com")
	all := j.All()
	if len(all) != 3 {
		t.Fatalf("All len = %d", len(all))
	}
	if all[0].Name != "c" || all[1].Name != "a" || all[2].Name != "b" {
		t.Fatalf("order = %s %s %s", all[0].Name, all[1].Name, all[2].Name)
	}
}

func TestClear(t *testing.T) {
	j, _ := newJar()
	j.SetFromDocument(site, "a=1")
	j.Clear()
	if j.Len() != 0 {
		t.Fatal("Clear did not empty the jar")
	}
}

func TestInvalidURLRejected(t *testing.T) {
	j, _ := newJar()
	if k := j.SetFromDocument(":// bad", "a=1"); k != ChangeRejected {
		t.Fatalf("kind = %v", k)
	}
	if j.DocumentCookie(":// bad") != "" {
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
			j.SetFromDocument(site, name+"=v")
		}
		if j.Len() != len(uniq) {
			return false
		}
		doc := "; " + j.DocumentCookie(site) + ";"
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
		j.SetFromDocument(site, fmt.Sprintf("c%d=value%d", i, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = j.DocumentCookie(site)
	}
}

func BenchmarkSetFromDocument(b *testing.B) {
	j, _ := newJar()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.SetFromDocument(site, "k=v; Path=/; Max-Age=3600")
	}
}
