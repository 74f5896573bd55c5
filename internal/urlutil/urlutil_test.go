package urlutil

import "testing"

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
	for _, raw := range []string{"", "not a url at all\x7f", "/relative/only", "mailto:x@y.com"} {
		if _, err := ParseOrigin(raw); err == nil {
			t.Errorf("ParseOrigin(%q) = nil error, want error", raw)
		}
	}
}

func TestOriginStringAndEqual(t *testing.T) {
	a, _ := ParseOrigin("https://example.com:443/x")
	b, _ := ParseOrigin("https://example.com/y")
	if !a.Equal(b) {
		t.Error("default-port origins should be equal")
	}
	if a.String() != "https://example.com" {
		t.Errorf("String = %q", a.String())
	}
	c, _ := ParseOrigin("https://example.com:8443/")
	if a.Equal(c) {
		t.Error("different ports must differ")
	}
	if c.String() != "https://example.com:8443" {
		t.Errorf("String = %q", c.String())
	}
	// Paper §2.1: subdomain => different origin, same domain.
	d, _ := ParseOrigin("https://subdomain.example.com/")
	if a.Equal(d) {
		t.Error("subdomain must be a different origin")
	}
	if a.RegistrableDomain() != d.RegistrableDomain() {
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

func TestIsThirdParty(t *testing.T) {
	site := "https://www.optimonk.com/"
	cases := []struct {
		script string
		want   bool
	}{
		{"https://cdn.optimonk.com/app.js", false},
		{"https://snap.licdn.com/li.lms-analytics/insight.min.js", true},
		{"https://www.googletagmanager.com/gtm.js", true},
		{"", true}, // inline: unattributable => third party (conservative)
	}
	for _, c := range cases {
		if got := IsThirdParty(c.script, site); got != c.want {
			t.Errorf("IsThirdParty(%q) = %v, want %v", c.script, got, c.want)
		}
	}
}

func TestSameDomain(t *testing.T) {
	if !SameDomain("https://a.facebook.net/x", "https://b.facebook.net/y") {
		t.Error("same eTLD+1 should be same domain")
	}
	if SameDomain("https://facebook.com/", "https://fbcdn.net/") {
		t.Error("facebook.com vs fbcdn.net must be cross-domain")
	}
	if SameDomain("", "") {
		t.Error("empty URLs are never same-domain")
	}
}

func TestWithParams(t *testing.T) {
	got := WithParams("https://t.example/collect?x=0", map[string]string{"b": "2", "a": "1"})
	want := "https://t.example/collect?a=1&b=2&x=0"
	if got != want {
		t.Errorf("WithParams = %q, want %q", got, want)
	}
}

func TestResolve(t *testing.T) {
	cases := []struct{ base, ref, want string }{
		{"https://example.com/page", "/app.js", "https://example.com/app.js"},
		{"https://example.com/dir/page", "other.js", "https://example.com/dir/other.js"},
		{"https://example.com/", "https://cdn.example.net/x.js", "https://cdn.example.net/x.js"},
	}
	for _, c := range cases {
		if got := Resolve(c.base, c.ref); got != c.want {
			t.Errorf("Resolve(%q,%q) = %q, want %q", c.base, c.ref, got, c.want)
		}
	}
}
