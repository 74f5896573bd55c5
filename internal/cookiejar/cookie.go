// Package cookiejar implements the browser cookie jar the paper's whole
// measurement targets: RFC 6265 Set-Cookie parsing, domain- and
// path-matching, the document.cookie interface, HttpOnly
// visibility, expiry-based deletion, and the structured CookieStore view.
//
// The jar itself enforces exactly what real browsers enforce — and no more:
// any script running in the main frame can read, overwrite, or delete any
// non-HttpOnly first-party cookie regardless of which domain's script set
// it. That missing isolation is what internal/guard adds back.
package cookiejar

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"cookieguard/internal/jsdsl"
)

// SameSite is the SameSite cookie attribute.
type SameSite int

// SameSite values.
const (
	SameSiteDefault SameSite = iota
	SameSiteLax
	SameSiteStrict
	SameSiteNone
)

func (s SameSite) String() string {
	switch s {
	case SameSiteLax:
		return "Lax"
	case SameSiteStrict:
		return "Strict"
	case SameSiteNone:
		return "None"
	default:
		return ""
	}
}

// Cookie is a single cookie with its RFC 6265 attributes plus the
// bookkeeping fields a jar needs.
type Cookie struct {
	Name  string
	Value string

	// Domain is the Domain attribute as stored: empty for a host-only
	// cookie. HostOnly distinguishes "no Domain attribute" from an
	// explicit Domain equal to the host.
	Domain   string
	HostOnly bool
	Path     string
	Expires  time.Time // zero means session cookie
	Secure   bool
	HttpOnly bool
	SameSite SameSite

	Created time.Time
}

// Expired reports whether the cookie is expired at time now. Session
// cookies (zero Expires) never expire within a simulation run.
func (c *Cookie) Expired(now time.Time) bool { return expired(c.Expires, now) }

// expired is the jar's expiry rule for an Expires of expires at now.
func expired(expires, now time.Time) bool {
	return !expires.IsZero() && !expires.After(now)
}

// Clone returns a copy of the cookie.
func (c *Cookie) Clone() *Cookie {
	cp := *c
	return &cp
}

// Record is the cookie as the CookieStore API hands it to scripts.
func (c *Cookie) Record() jsdsl.CookieRecord {
	return jsdsl.CookieRecord{
		Name:   c.Name,
		Value:  c.Value,
		Domain: c.Domain,
		Path:   c.Path,
		Secure: c.Secure,
	}
}

// Assignment is one Set-Cookie header line or document.cookie assignment
// as written: the name, value and attributes, before a jar resolves the
// default domain and path and the expiry against its clock.
type Assignment struct {
	Name   string
	Value  string
	Domain string // the Domain attribute, lower-cased, without a leading dot
	Path   string

	// MaxAge is the last valid Max-Age, in seconds, when HasMaxAge is
	// set; Expires is the last valid Expires, zero if there is none.
	// Max-Age has precedence (RFC 6265 §4.1.2.2).
	MaxAge    int64
	HasMaxAge bool
	Expires   time.Time

	Secure   bool
	HttpOnly bool
	SameSite SameSite
}

// ParseAssignment parses one Set-Cookie header line, or a document.cookie
// assignment string, which uses the same grammar. ok is false, and the
// assignment is zero, when the line has no name=value prefix with a
// non-empty name.
//
// Segments are walked in place and attribute names are matched without
// building lowered strings: the jar, the recorder and CookieGuard each
// parse every script cookie write with it on the crawl hot path, and a
// typical write such as "_ga=…; Path=/; Max-Age=63072000; SameSite=Lax"
// parses without allocating.
func ParseAssignment(line string) (a Assignment, ok bool) {
	nv, rest, _ := strings.Cut(line, ";")
	nv = strings.TrimSpace(nv)
	eq := strings.IndexByte(nv, '=')
	if eq <= 0 {
		return Assignment{}, false // empty name not allowed
	}
	a.Name = strings.TrimSpace(nv[:eq])
	a.Value = strings.TrimSpace(nv[eq+1:])
	if a.Name == "" {
		return Assignment{}, false
	}
	for rest != "" {
		var attr string
		attr, rest, _ = strings.Cut(rest, ";")
		key, val, _ := strings.Cut(strings.TrimSpace(attr), "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case lowersTo(key, "domain"):
			a.Domain = strings.ToLower(strings.TrimPrefix(val, "."))
		case lowersTo(key, "path"):
			a.Path = val
		case lowersTo(key, "expires"):
			if !a.HasMaxAge { // Max-Age has precedence
				if t, err := parseCookieTime(val); err == nil {
					a.Expires = t
				}
			}
		case lowersTo(key, "max-age"):
			if secs, err := strconv.ParseInt(val, 10, 64); err == nil {
				a.MaxAge, a.HasMaxAge = secs, true
			}
		case lowersTo(key, "secure"):
			a.Secure = true
		case lowersTo(key, "httponly"):
			a.HttpOnly = true
		case lowersTo(key, "samesite"):
			switch {
			case lowersTo(val, "lax"):
				a.SameSite = SameSiteLax
			case lowersTo(val, "strict"):
				a.SameSite = SameSiteStrict
			case lowersTo(val, "none"):
				a.SameSite = SameSiteNone
			}
		}
	}
	return a, true
}

// expiry is the Expires a jar stores for the assignment written at now:
// zero for a session cookie, and a second before now for a Max-Age of
// zero or less, the standard deletion idiom.
func (a *Assignment) expiry(now time.Time) time.Time {
	switch {
	case !a.HasMaxAge:
		return a.Expires
	case a.MaxAge <= 0:
		return now.Add(-time.Second)
	default:
		return now.Add(time.Duration(a.MaxAge) * time.Second)
	}
}

// Expired reports whether a jar at time now treats the assignment as a
// deletion: the cookie it would store is already expired, so the jar
// deletes the stored cookie of that name, domain and path instead.
func (a *Assignment) Expired(now time.Time) bool { return expired(a.expiry(now), now) }

// ParseSetCookie parses one Set-Cookie header line (or a document.cookie
// assignment string) relative to now. ok is false, and the cookie zero,
// if the line has no parsable name=value prefix.
func ParseSetCookie(line string, now time.Time) (c Cookie, ok bool) {
	a, ok := ParseAssignment(line)
	if !ok {
		return Cookie{}, false
	}
	return Cookie{
		Name:     a.Name,
		Value:    a.Value,
		Domain:   a.Domain,
		Path:     a.Path,
		Expires:  a.expiry(now),
		Secure:   a.Secure,
		HttpOnly: a.HttpOnly,
		SameSite: a.SameSite,
		Created:  now,
	}, true
}

// lowersTo reports whether strings.ToLower(s) == lower, for an ASCII
// lower-case lower. ASCII s is folded byte by byte; anything else takes
// strings.ToLower itself, because a few non-ASCII letters lower to ASCII
// ones ('İ' to 'i', the Kelvin sign to 'k').
func lowersTo(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.ToLower(s) == lower
		}
	}
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

var cookieTimeFormats = []string{
	time.RFC1123,
	"Mon, 02-Jan-2006 15:04:05 MST",
	time.RFC1123Z,
	time.ANSIC,
	time.RFC850,
}

func parseCookieTime(s string) (time.Time, error) {
	for _, f := range cookieTimeFormats {
		if t, err := time.Parse(f, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("cookiejar: unparsable cookie time %q", s)
}

// domainMatch implements RFC 6265 §5.1.3.
func domainMatch(host, domain string) bool {
	if domain == "" {
		return false
	}
	if host == domain {
		return true
	}
	return strings.HasSuffix(host, "."+domain)
}

// defaultPath implements RFC 6265 §5.1.4.
func defaultPath(requestPath string) string {
	if requestPath == "" || !strings.HasPrefix(requestPath, "/") {
		return "/"
	}
	i := strings.LastIndexByte(requestPath, '/')
	if i == 0 {
		return "/"
	}
	return requestPath[:i]
}

// pathMatch implements RFC 6265 §5.1.4.
func pathMatch(requestPath, cookiePath string) bool {
	if requestPath == cookiePath {
		return true
	}
	if strings.HasPrefix(requestPath, cookiePath) {
		if strings.HasSuffix(cookiePath, "/") {
			return true
		}
		if len(requestPath) > len(cookiePath) && requestPath[len(cookiePath)] == '/' {
			return true
		}
	}
	return false
}

// sortCookies orders cookies for serialization: longer paths first,
// then earlier creation time (RFC 6265 §5.4 step 2). The RFC leaves the
// order of remaining ties undefined; they are broken on (domain, name) so
// serialization does not inherit map iteration order — with a fixed seed,
// repeated crawls then produce byte-identical logs. The generic stable
// sort avoids sort.SliceStable's per-call reflection allocations on the
// cookie-render hot path.
func sortCookies(cs []*Cookie) {
	slices.SortStableFunc(cs, func(a, b *Cookie) int {
		if len(a.Path) != len(b.Path) {
			return len(b.Path) - len(a.Path)
		}
		if !a.Created.Equal(b.Created) {
			if a.Created.Before(b.Created) {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Domain, b.Domain); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
}
