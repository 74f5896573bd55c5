package cookiejar

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"cookieguard/internal/webgen"
)

// fuzzSetCookies returns every Set-Cookie line a small generated web's
// landing pages send, fetched over its fabric.
func fuzzSetCookies(f *testing.F) []string {
	w := webgen.Build(webgen.DefaultConfig(12))
	client := w.BuildInternet().Client()
	var lines []string
	for _, s := range w.CompleteSites() {
		resp, err := client.Get("https://" + s.Host + "/")
		if err != nil {
			f.Fatal(err)
		}
		resp.Body.Close()
		lines = append(lines, resp.Header.Values("Set-Cookie")...)
	}
	if len(lines) == 0 {
		f.Fatal("the generated web set no cookies")
	}
	return lines
}

// parseSetCookieOracle is ParseSetCookie as it was before
// ParseAssignment split out of it, with strings.ToLower attribute
// matching: the reference the current parser must agree with on every
// line.
func parseSetCookieOracle(line string, now time.Time) (Cookie, bool) {
	nv := line
	rest := ""
	if i := strings.IndexByte(line, ';'); i >= 0 {
		nv, rest = line[:i], line[i+1:]
	}
	nv = strings.TrimSpace(nv)
	eq := strings.IndexByte(nv, '=')
	if eq <= 0 {
		return Cookie{}, false
	}
	c := Cookie{
		Name:    strings.TrimSpace(nv[:eq]),
		Value:   strings.TrimSpace(nv[eq+1:]),
		Created: now,
	}
	if c.Name == "" {
		return Cookie{}, false
	}
	var maxAgeSet bool
	for rest != "" {
		attr := rest
		if i := strings.IndexByte(rest, ';'); i >= 0 {
			attr, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		attr = strings.TrimSpace(attr)
		if attr == "" {
			continue
		}
		var key, val string
		if i := strings.IndexByte(attr, '='); i >= 0 {
			key, val = attr[:i], strings.TrimSpace(attr[i+1:])
		} else {
			key = attr
		}
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "domain":
			c.Domain = strings.ToLower(strings.TrimPrefix(val, "."))
		case "path":
			c.Path = val
		case "expires":
			if !maxAgeSet {
				if t, err := parseCookieTime(val); err == nil {
					c.Expires = t
				}
			}
		case "max-age":
			if secs, err := strconv.Atoi(val); err == nil {
				maxAgeSet = true
				if secs <= 0 {
					c.Expires = now.Add(-time.Second)
				} else {
					c.Expires = now.Add(time.Duration(secs) * time.Second)
				}
			}
		case "secure":
			c.Secure = true
		case "httponly":
			c.HttpOnly = true
		case "samesite":
			switch strings.ToLower(val) {
			case "lax":
				c.SameSite = SameSiteLax
			case "strict":
				c.SameSite = SameSiteStrict
			case "none":
				c.SameSite = SameSiteNone
			}
		}
	}
	return c, true
}

// FuzzParseSetCookie checks that ParseSetCookie never panics on any
// line, that a cookie it returns has a name, and that it parses every
// line exactly as parseSetCookieOracle does.
func FuzzParseSetCookie(f *testing.F) {
	for _, l := range fuzzSetCookies(f) {
		f.Add(l)
	}
	for _, l := range []string{
		"_ga=GA1.1.444332364.1746838827; Domain=.example.com; Path=/; Expires=Wed, 21 Oct 2026 07:28:00 GMT",
		"id=1; Max-Age=0",
		"id=1; max-age=-5; Expires=garbage; SameSite=None; Secure; HttpOnly",
		"=novalue; Path=/",
		";;=;",
		"x=1; Max-Age=1; max-age=0",
		"x=1; expires=Thu, 01 Jan 1970 00:00:00 GMT",
		"x=max-age=0",
		"x=1; Path=/max-age=0",
		"x=1; Max-Age=9223372037; SAMESITE=lAx; DOMAİN=Example.COM",
		"x=1; Expires=Sun, 06 Nov 1994 08:49:37 PST; Max-Age=+5; Max-Age=x",
	} {
		f.Add(l)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, ok := ParseSetCookie(line, t0)
		want, wantOK := parseSetCookieOracle(line, t0)
		if ok && got.Name == "" {
			t.Fatalf("ParseSetCookie(%q) returned a cookie with no name", line)
		}
		if ok != wantOK {
			t.Fatalf("ParseSetCookie(%q) = %+v, %v; oracle gives %+v, %v", line, got, ok, want, wantOK)
		}
		if !ok {
			if got != (Cookie{}) {
				t.Fatalf("ParseSetCookie(%q) = %+v with no cookie, want zero", line, got)
			}
			return
		}
		// Expires is compared as an instant and a rendering: a parsed
		// zone is a fresh *time.Location on every parse.
		if !got.Expires.Equal(want.Expires) || got.Expires.String() != want.Expires.String() {
			t.Fatalf("ParseSetCookie(%q).Expires = %v, oracle gives %v", line, got.Expires, want.Expires)
		}
		got.Expires, want.Expires = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseSetCookie(%q) = %+v, oracle gives %+v", line, got, want)
		}
	})
}
