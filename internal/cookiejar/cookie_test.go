package cookiejar

import (
	"testing"
	"time"

	"cookieguard/internal/vclock"
)

var t0 = vclock.Epoch

func TestParseSetCookieBasic(t *testing.T) {
	c, ok := ParseSetCookie("_ga=GA1.1.444332364.1746838827", t0)
	if !ok {
		t.Fatal("no cookie")
	}
	if c.Name != "_ga" || c.Value != "GA1.1.444332364.1746838827" {
		t.Fatalf("parsed %q=%q", c.Name, c.Value)
	}
	if !c.Expires.IsZero() {
		t.Fatal("session cookie should have zero expiry")
	}
}

func TestParseSetCookieAttributes(t *testing.T) {
	line := "sid=abc123; Domain=.example.com; Path=/app; Secure; HttpOnly; SameSite=Strict; Max-Age=3600"
	c, _ := ParseSetCookie(line, t0)
	if c.Domain != "example.com" {
		t.Errorf("Domain = %q (leading dot must be stripped)", c.Domain)
	}
	if c.Path != "/app" || !c.Secure || !c.HttpOnly || c.SameSite != SameSiteStrict {
		t.Errorf("attrs wrong: %+v", c)
	}
	want := t0.Add(time.Hour)
	if !c.Expires.Equal(want) {
		t.Errorf("Expires = %v, want %v", c.Expires, want)
	}
}

func TestParseSetCookieExpiresFormats(t *testing.T) {
	for _, f := range []string{
		"Sat, 01 Mar 2025 12:00:00 GMT",
		"Sat, 01-Mar-2025 12:00:00 GMT",
	} {
		c, _ := ParseSetCookie("a=1; Expires="+f, t0)
		if c.Expires.IsZero() {
			t.Errorf("Expires format %q not parsed", f)
		}
	}
}

func TestMaxAgePrecedenceOverExpires(t *testing.T) {
	c, _ := ParseSetCookie("a=1; Expires=Sat, 01 Mar 2031 12:00:00 GMT; Max-Age=60", t0)
	if !c.Expires.Equal(t0.Add(time.Minute)) {
		t.Errorf("Max-Age should win: %v", c.Expires)
	}
	// Max-Age before Expires in attribute order must also win.
	c2, _ := ParseSetCookie("a=1; Max-Age=60; Expires=Sat, 01 Mar 2031 12:00:00 GMT", t0)
	if !c2.Expires.Equal(t0.Add(time.Minute)) {
		t.Errorf("Max-Age should win regardless of order: %v", c2.Expires)
	}
}

func TestMaxAgeZeroMeansExpired(t *testing.T) {
	c, _ := ParseSetCookie("a=1; Max-Age=0", t0)
	if !c.Expired(t0) {
		t.Error("Max-Age=0 must produce an expired cookie")
	}
}

func TestParseSetCookieInvalid(t *testing.T) {
	for _, line := range []string{"", "=value", "noequals", ";;;", "  =x"} {
		if c, ok := ParseSetCookie(line, t0); ok || c != (Cookie{}) {
			t.Errorf("ParseSetCookie(%q) = %+v, %v; want a zero cookie, false", line, c, ok)
		}
	}
}

func TestParseSetCookieValueWithEquals(t *testing.T) {
	c, _ := ParseSetCookie("k=a=b=c", t0)
	if c.Value != "a=b=c" {
		t.Errorf("Value = %q", c.Value)
	}
}

// TestParseAssignmentAllocs pins the parser's allocations on a typical
// tracker write: none, for ParseAssignment and ParseSetCookie alike.
func TestParseAssignmentAllocs(t *testing.T) {
	var sink Cookie
	const ga = "_ga=GA1.2.123.456; Path=/; Max-Age=63072000; SameSite=Lax"
	if n := testing.AllocsPerRun(100, func() { ParseAssignment(ga) }); n != 0 {
		t.Errorf("ParseAssignment(%q): %v allocs, want 0", ga, n)
	}
	const tid = "_tid=abcdef; Max-Age=3600"
	if n := testing.AllocsPerRun(100, func() { sink, _ = ParseSetCookie(tid, t0) }); n != 0 {
		t.Errorf("ParseSetCookie(%q): %v allocs, want 0", tid, n)
	}
	_ = sink
}

func TestDomainMatch(t *testing.T) {
	cases := []struct {
		host, domain string
		want         bool
	}{
		{"example.com", "example.com", true},
		{"www.example.com", "example.com", true},
		{"a.b.example.com", "example.com", true},
		{"example.com", "www.example.com", false},
		{"badexample.com", "example.com", false},
		{"example.com", "", false},
	}
	for _, c := range cases {
		if got := domainMatch(c.host, c.domain); got != c.want {
			t.Errorf("domainMatch(%q,%q) = %v", c.host, c.domain, got)
		}
	}
}

func TestDefaultPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/", "/"},
		{"", "/"},
		{"/index.html", "/"},
		{"/app/page", "/app"},
		{"/a/b/c", "/a/b"},
		{"noSlash", "/"},
	}
	for _, c := range cases {
		if got := defaultPath(c.in); got != c.want {
			t.Errorf("defaultPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPathMatch(t *testing.T) {
	cases := []struct {
		req, cookie string
		want        bool
	}{
		{"/app/page", "/app", true},
		{"/app", "/app", true},
		{"/app/", "/app/", true},
		{"/application", "/app", false},
		{"/", "/", true},
		{"/x", "/", true},
	}
	for _, c := range cases {
		if got := pathMatch(c.req, c.cookie); got != c.want {
			t.Errorf("pathMatch(%q,%q) = %v", c.req, c.cookie, got)
		}
	}
}

func TestSourceAndChangeKindStrings(t *testing.T) {
	if SourceHTTP.String() != "http" || SourceDocument.String() != "document.cookie" ||
		SourceCookieStore.String() != "cookieStore" || Source(99).String() != "unknown" {
		t.Error("Source.String mismatch")
	}
	if ChangeCreated.String() != "created" || ChangeOverwritten.String() != "overwritten" ||
		ChangeDeleted.String() != "deleted" || ChangeRejected.String() != "rejected" ||
		ChangeKind(99).String() != "unknown" {
		t.Error("ChangeKind.String mismatch")
	}
}
