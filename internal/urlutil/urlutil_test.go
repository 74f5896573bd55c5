package urlutil

import (
	"net/url"
	"testing"
)

func TestParseOrigin(t *testing.T) {
	cases := []struct {
		raw  string
		want Origin
	}{
		{"https://www.example.com/path?q=1", Origin{"https", "www.example.com", ""}},
		{"https://www.example.com:443/", Origin{"https", "www.example.com", ""}},
		{"http://example.com:80/", Origin{"http", "example.com", ""}},
		{"http://example.com:8080/", Origin{"http", "example.com", "8080"}},
		{"HTTPS://EXAMPLE.COM/", Origin{"https", "example.com", ""}},
	}
	for _, c := range cases {
		got, err := ParseOrigin(c.raw)
		if err != nil {
			t.Errorf("ParseOrigin(%q): %v", c.raw, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseOrigin(%q) = %+v, want %+v", c.raw, got, c.want)
		}
	}
}

func TestParseOriginErrors(t *testing.T) {
	for _, raw := range []string{
		"", "not a url at all\x7f", "/relative/only", "mailto:x@y.com",
		"https://[]/", "https://:80/", // empty host
		"https://[example.com]/", "https://[1.2.3.4]/", "https://a:b:80/", // not IPv6
	} {
		if _, err := ParseOrigin(raw); err == nil {
			t.Errorf("ParseOrigin(%q) = nil error, want error", raw)
		}
	}
}

func TestOriginStringAndEqual(t *testing.T) {
	a, _ := ParseOrigin("https://example.com:443/x")
	b, _ := ParseOrigin("https://example.com/y")
	if a != b {
		t.Error("default-port origins should be equal")
	}
	if a.String() != "https://example.com" {
		t.Errorf("String = %q", a.String())
	}
	c, _ := ParseOrigin("https://example.com:8443/")
	if a == c {
		t.Error("different ports must differ")
	}
	if c.String() != "https://example.com:8443" {
		t.Errorf("String = %q", c.String())
	}
	for raw, want := range map[string]string{
		"https://[2001:db8::1]:8443/x": "https://[2001:db8::1]:8443",
		"https://[FE80::1%25En0]/":     "https://[fe80::1%25en0]",
		"https://a%25b.example/":       "https://a%25b.example",
	} {
		o, err := ParseOrigin(raw)
		if err != nil || o.String() != want {
			t.Errorf("ParseOrigin(%q).String() = %q (err %v), want %q", raw, o.String(), err, want)
		}
	}
	// Paper §2.1: subdomain => different origin, same domain.
	d, _ := ParseOrigin("https://subdomain.example.com/")
	if a == d {
		t.Error("subdomain must be a different origin")
	}
	if RegistrableDomain("https://example.com/") != RegistrableDomain("https://subdomain.example.com/") {
		t.Error("subdomain must share the registrable domain")
	}
}

func TestRegistrableDomain(t *testing.T) {
	cases := []struct{ raw, want string }{
		{"https://www.example.com/a.js", "example.com"},
		{"https://px.ads.linkedin.com/attribution_trigger?x=1", "linkedin.com"},
		{"", ""},
		{"/inline", ""},
		{"https://cdn.shopifycloud.com/shopify-perf-kit-1.6.1.min.js", "shopifycloud.com"},
	}
	for _, c := range cases {
		if got := RegistrableDomain(c.raw); got != c.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", c.raw, got, c.want)
		}
	}
}

func TestWithParams(t *testing.T) {
	got := WithParams("https://t.example/collect?x=0", []string{"a", "b"}, []string{"1", "2"})
	want := "https://t.example/collect?a=1&b=2&x=0"
	if got != want {
		t.Errorf("WithParams = %q, want %q", got, want)
	}
	keys, vals := []string{"u", "v"}, []string{"https://www.site00001.com/a b", "x~y"}
	if got := testing.AllocsPerRun(10, func() { _ = WithParams("https://t.example/collect", keys, vals) }); got != 1 {
		t.Errorf("WithParams on a canonical base: %v allocations, want 1 (the URL)", got)
	}
}

func TestResolve(t *testing.T) {
	cases := []struct{ base, ref, want string }{
		{"https://example.com/page", "/app.js", "https://example.com/app.js"},
		{"https://example.com/dir/page", "other.js", "https://example.com/dir/other.js"},
		{"https://example.com/", "https://cdn.example.net/x.js", "https://cdn.example.net/x.js"},
	}
	for _, c := range cases {
		base, err := url.Parse(c.base)
		if err != nil {
			t.Fatal(err)
		}
		if got := ResolveRef(base, c.ref); got != c.want {
			t.Errorf("ResolveRef(%q,%q) = %q, want %q", c.base, c.ref, got, c.want)
		}
	}
}
