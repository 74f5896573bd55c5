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
	"net/netip"
	"net/url"
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
	if u.Scheme == "" || u.Hostname() == "" {
		return Origin{}, fmt.Errorf("urlutil: %q has no scheme or host", rawURL)
	}
	o := Origin{Scheme: strings.ToLower(u.Scheme), Host: strings.ToLower(u.Hostname()), Port: u.Port()}
	if strings.HasPrefix(u.Host, "[") || strings.Contains(o.Host, ":") {
		// Only an IPv6 address may be bracketed or contain ':' (RFC 3986
		// §3.2.2). Older net/url releases accept "[example.com]" and
		// "a:b:80"; rejecting them here gives every release the same
		// origins, each of which String renders in a form url.Parse takes.
		if a, err := netip.ParseAddr(o.Host); err != nil || !a.Is6() {
			return Origin{}, fmt.Errorf("urlutil: %q has an invalid IP literal", rawURL)
		}
	}
	if (o.Scheme == "http" && o.Port == "80") || (o.Scheme == "https" && o.Port == "443") {
		o.Port = ""
	}
	return o, nil
}

// String renders the origin in serialized form, e.g. "https://example.com",
// "http://example.com:8080" or "https://[2001:db8::1]". ParseOrigin of the
// result gives back o for every origin ParseOrigin returns: an IPv6 host
// (the only kind with a ':') is bracketed, and a '%' or ' ' in a host is
// escaped as url.Parse expects ("%25" in any host, "%20" in an IPv6 zone).
func (o Origin) String() string {
	host := hostEscaper.Replace(o.Host)
	if strings.Contains(host, ":") {
		host = "[" + host + "]"
	}
	if o.Port != "" {
		return o.Scheme + "://" + host + ":" + o.Port
	}
	return o.Scheme + "://" + host
}

var hostEscaper = strings.NewReplacer("%", "%25", " ", "%20")

// Hostname extracts the lower-cased host (without port) from a URL string,
// returning "" if the URL does not parse or has no host.
//
// The common "scheme://host[:port]/..." shape is handled with a single
// scan and no allocation (strings.ToLower returns its input unchanged for
// already-lowercase hosts, which is every host the synthetic web serves);
// anything unusual falls back to net/url.
func Hostname(rawURL string) string {
	if rawURL == "" { // inline scripts and page-level initiators
		return ""
	}
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

// WithParams returns base with the parameters keys[i]=vals[i] appended
// to its query string, each key and value escaped as url.QueryEscape
// escapes it. keys must be sorted and distinct, and vals as long as
// keys; the slices are only read during the call.
//
// When base is canonical (see canonicalAbsolute) and has no '?', the
// query is written after base's bytes, in the order url.Values.Encode
// gives, into one string of the exact escaped length: the result is the
// one the net/url path below gives, with one allocation. Any other base
// is parsed with net/url, and an existing query is re-encoded together
// with the parameters.
func WithParams(base string, keys, vals []string) string {
	if ok, query := canonicalAbsolute(base); ok && !query {
		if len(keys) == 0 {
			return base
		}
		n := len(base)
		for i, k := range keys {
			n += 2 + queryEscapedLen(k) + queryEscapedLen(vals[i])
		}
		var b strings.Builder
		b.Grow(n)
		b.WriteString(base)
		for i, k := range keys {
			if i == 0 {
				b.WriteByte('?')
			} else {
				b.WriteByte('&')
			}
			writeQueryEscaped(&b, k)
			b.WriteByte('=')
			writeQueryEscaped(&b, vals[i])
		}
		return b.String()
	}
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	q := u.Query()
	for i, k := range keys {
		q.Set(k, vals[i])
	}
	u.RawQuery = q.Encode()
	return u.String()
}

// queryUnescaped reports whether url.QueryEscape leaves c as it is: the
// unreserved characters of RFC 3986 §2.3.
func queryUnescaped(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '-' || c == '_' || c == '.' || c == '~'
}

// queryEscapedLen returns len(url.QueryEscape(s)).
func queryEscapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; !queryUnescaped(c) && c != ' ' {
			n += 2
		}
	}
	return n
}

// writeQueryEscaped writes url.QueryEscape(s) to b: a space becomes '+',
// any other byte outside the unreserved set becomes %XX.
func writeQueryEscaped(b *strings.Builder, s string) {
	const upperhex = "0123456789ABCDEF"
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if queryUnescaped(c) {
			continue
		}
		b.WriteString(s[start:i])
		if c == ' ' {
			b.WriteByte('+')
		} else {
			b.WriteByte('%')
			b.WriteByte(upperhex[c>>4])
			b.WriteByte(upperhex[c&15])
		}
		start = i + 1
	}
	b.WriteString(s[start:])
}

// ResolveRef resolves ref against base, mirroring how a browser resolves
// a relative src attribute. Pages resolve dozens of references against
// the same base URL, so the base comes parsed.
//
// A canonical ref (see canonicalAbsolute) is returned as is, without
// allocating: it is absolute, so base does not matter, and net/url would
// give back the same bytes. A root-relative ref (one leading '/', not
// "//") against an http(s) base with no userinfo and no opaque part
// becomes scheme://host+ref with one allocation, when that string is
// canonical: net/url would keep the base's scheme and host and the
// ref's path and query, and a canonical string has no dot segment to
// remove and nothing to escape. Every other ref goes through url.Parse,
// ResolveReference and String.
func ResolveRef(base *url.URL, ref string) string {
	if ok, _ := canonicalAbsolute(ref); ok {
		return ref
	}
	if len(ref) > 0 && ref[0] == '/' && (len(ref) == 1 || ref[1] != '/') &&
		(base.Scheme == "http" || base.Scheme == "https") && base.User == nil && base.Opaque == "" {
		abs := base.Scheme + "://" + base.Host + ref
		if ok, _ := canonicalAbsolute(abs); ok {
			return abs
		}
	}
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return base.ResolveReference(r).String()
}

// ParseCanonical parses a canonical absolute URL (see canonicalAbsolute)
// into dst without allocating, filling it exactly as url.Parse would, and
// reports whether s was canonical. dst's fields are substrings of s. For
// any other s it returns false and leaves dst alone: parse those with
// url.Parse.
func ParseCanonical(dst *url.URL, s string) bool {
	ok, query := canonicalAbsolute(s)
	if !ok {
		return false
	}
	scheme := s[:len("http")]
	if s[len("http")] == 's' {
		scheme = s[:len("https")]
	}
	rest := s[len(scheme)+len("://"):]
	var rawQuery string
	if query {
		rest, rawQuery, _ = strings.Cut(rest, "?")
	}
	host, path := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, path = rest[:i], rest[i:]
	}
	// url.Parse sets ForceQuery only for a lone trailing '?', the one
	// canonical shape whose query is present but empty.
	*dst = url.URL{Scheme: scheme, Host: host, Path: path, RawQuery: rawQuery, ForceQuery: query && rawQuery == ""}
	return true
}

// canonicalAbsolute reports whether s is an absolute http(s) URL that
// url.Parse, ResolveReference and String give back byte for byte. It
// accepts exactly this shape and nothing else:
//
//   - the scheme is "http" or "https", in lower case, then "://";
//   - the host is non-empty and made of ASCII letters, digits, '.', '-'
//     and '_', optionally followed by ':' and a non-empty decimal port
//     (so no userinfo, IPv6 literal or escape);
//   - the path is empty or starts with '/', uses only ASCII letters,
//     digits and "-._~$&+,/:;=@" (the characters net/url never escapes
//     in a path, minus '%'), and has no "." or ".." segment;
//   - an optional '?' starts a query of printable ASCII other than ' '
//     and '#', which net/url keeps verbatim;
//   - there is no fragment.
//
// query reports whether s has a '?'. Anything else, including a shape
// net/url would also leave unchanged, is not canonical and takes the
// net/url path.
func canonicalAbsolute(s string) (ok, query bool) {
	i := len("http://")
	switch {
	case strings.HasPrefix(s, "https://"):
		i = len("https://")
	case !strings.HasPrefix(s, "http://"):
		return false, false
	}
	hostStart, port := i, -1
	for ; i < len(s) && s[i] != '/' && s[i] != '?'; i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '.' || c == '-' || c == '_':
			if port >= 0 {
				return false, false
			}
		case '0' <= c && c <= '9':
		case c == ':':
			if port >= 0 || i == hostStart {
				return false, false
			}
			port = i
		default:
			return false, false
		}
	}
	if i == hostStart || port == i-1 {
		return false, false
	}
	segStart := i
	for ; i < len(s) && s[i] != '?'; i++ {
		c := s[i]
		if c == '/' {
			if isDotSegment(s[segStart:i]) {
				return false, false
			}
			segStart = i + 1
			continue
		}
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("-._~$&+,:;=@", c) >= 0) {
			return false, false
		}
	}
	if isDotSegment(s[segStart:i]) {
		return false, false
	}
	if i == len(s) {
		return true, false
	}
	for i++; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || c == '#' {
			return false, false
		}
	}
	return true, true
}

func isDotSegment(seg string) bool { return seg == "." || seg == ".." }
