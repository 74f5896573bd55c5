// Package urlutil provides the URL, host, and origin helpers shared by the
// browser engine, the measurement pipeline, and CookieGuard itself.
//
// The paper (§2.1) is careful to distinguish cross-ORIGIN (the strict SOP
// triple scheme/host/port) from cross-DOMAIN (different eTLD+1 executing in
// the same main-frame origin). Origin implements the former; the
// RegistrableDomain helpers implement the latter.
package urlutil

import (
	"fmt"
	"net/url"
	"sort"
	"strings"

	"cookieguard/internal/publicsuffix"
)

// Origin is the Same-Origin Policy triple.
type Origin struct {
	Scheme string
	Host   string // host without port
	Port   string // normalized: "" means scheme default
}

// ParseOrigin extracts the origin of a URL string. The port is normalized:
// explicit default ports (80 for http, 443 for https) become "".
func ParseOrigin(rawURL string) (Origin, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return Origin{}, fmt.Errorf("urlutil: parse origin: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return Origin{}, fmt.Errorf("urlutil: %q has no scheme or host", rawURL)
	}
	o := Origin{Scheme: strings.ToLower(u.Scheme), Host: strings.ToLower(u.Hostname()), Port: u.Port()}
	if (o.Scheme == "http" && o.Port == "80") || (o.Scheme == "https" && o.Port == "443") {
		o.Port = ""
	}
	return o, nil
}

// String renders the origin in serialized form, e.g. "https://example.com"
// or "http://example.com:8080".
func (o Origin) String() string {
	if o.Port != "" {
		return o.Scheme + "://" + o.Host + ":" + o.Port
	}
	return o.Scheme + "://" + o.Host
}

// Equal reports SOP equality: same scheme, host, and port.
func (o Origin) Equal(other Origin) bool { return o == other }

// RegistrableDomain returns the eTLD+1 of the origin's host.
func (o Origin) RegistrableDomain() string {
	return publicsuffix.RegistrableDomain(o.Host)
}

// Hostname extracts the lower-cased host (without port) from a URL string,
// returning "" if the URL does not parse or has no host.
//
// The common "scheme://host[:port]/..." shape is handled with a single
// scan and no allocation (strings.ToLower returns its input unchanged for
// already-lowercase hosts, which is every host the synthetic web serves);
// anything unusual falls back to net/url.
func Hostname(rawURL string) string {
	if h, ok := fastHostname(rawURL); ok {
		return strings.ToLower(h)
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// fastHostname slices the host out of a plain absolute URL. ok is false
// for any shape with userinfo, IPv6 literals, escapes, a non-numeric
// port, characters url.Parse would reject, or no "//" authority — those
// take the slow path, so the fast path never reports a host for a URL
// the slow path would call unparsable.
func fastHostname(rawURL string) (string, bool) {
	i := strings.Index(rawURL, "://")
	if i <= 0 {
		return "", false
	}
	for j := 0; j < i; j++ { // scheme must be [a-zA-Z][a-zA-Z0-9+.-]*
		c := rawURL[j]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case j > 0 && ('0' <= c && c <= '9' || c == '+' || c == '-' || c == '.'):
		default:
			return "", false
		}
	}
	rest := rawURL[i+3:]
	end := len(rest)
	for j := 0; j < len(rest); j++ {
		if c := rest[j]; c == '/' || c == '?' || c == '#' {
			end = j
			break
		}
	}
	host := rest[:end]
	if host == "" {
		return "", false
	}
	if k := strings.IndexByte(host, ':'); k >= 0 {
		port := host[k+1:]
		host = host[:k]
		if host == "" {
			return "", false
		}
		for i := 0; i < len(port); i++ { // url.Parse rejects non-numeric ports
			if port[i] < '0' || port[i] > '9' {
				return "", false
			}
		}
	}
	for i := 0; i < len(host); i++ {
		c := host[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9':
		case c == '.' || c == '-' || c == '_':
		default:
			return "", false // userinfo, brackets, escapes, spaces, …
		}
	}
	return host, true
}

// RegistrableDomain returns the eTLD+1 of the host of a URL string, or ""
// when the URL has no usable host. Inline scripts and data: URLs have no
// host and therefore no domain — callers treat "" as "unattributable".
func RegistrableDomain(rawURL string) string {
	h := Hostname(rawURL)
	if h == "" {
		return ""
	}
	return publicsuffix.RegistrableDomain(h)
}

// SameDomain reports whether two URLs share an eTLD+1. Either side being
// unattributable ("" domain) is never same-domain.
func SameDomain(urlA, urlB string) bool {
	da, db := RegistrableDomain(urlA), RegistrableDomain(urlB)
	return da != "" && da == db
}

// IsThirdParty reports whether scriptURL is third-party with respect to
// siteURL, i.e. their registrable domains differ. An unattributable script
// URL is conservatively treated as third party.
func IsThirdParty(scriptURL, siteURL string) bool {
	sd := RegistrableDomain(scriptURL)
	pd := RegistrableDomain(siteURL)
	if sd == "" {
		return true
	}
	return sd != pd
}

// WithParams returns base with the given parameters appended to its query
// string. Keys are added in sorted order for determinism.
func WithParams(base string, params map[string]string) string {
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if u.RawQuery == "" {
		// Fast path for the common beacon shape (no pre-existing query):
		// build the encoded query directly. url.Values.Encode emits
		// sorted keys with QueryEscape applied to both sides — exactly
		// this loop, minus the Values map and its per-key slices.
		var b strings.Builder
		for i, k := range keys {
			if i > 0 {
				b.WriteByte('&')
			}
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(params[k]))
		}
		u.RawQuery = b.String()
		return u.String()
	}
	q := u.Query()
	for _, k := range keys {
		q.Set(k, params[k])
	}
	u.RawQuery = q.Encode()
	return u.String()
}

// Resolve resolves ref against base, mirroring how a browser resolves a
// relative src attribute. Invalid inputs return ref unchanged.
func Resolve(base, ref string) string {
	b, err := url.Parse(base)
	if err != nil {
		return ref
	}
	return ResolveRef(b, ref)
}

// ResolveRef is Resolve against an already parsed base. Pages resolve
// dozens of references against the same base URL; parsing the base once
// per page removes the dominant allocation of the old string-only path.
func ResolveRef(base *url.URL, ref string) string {
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return base.ResolveReference(r).String()
}
