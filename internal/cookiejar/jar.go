package cookiejar

import (
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"cookieguard/internal/publicsuffix"
)

// Clock abstracts the time source so jars run on virtual time.
type Clock interface {
	Now() time.Time
}

// Source identifies how a cookie write reached the jar. The measurement
// pipeline (and CookieGuard's metadata store) record it alongside each
// write so ghost-written cookies can be distinguished from genuine
// first-party ones.
type Source int

// Cookie write sources.
const (
	SourceHTTP        Source = iota // Set-Cookie response header
	SourceDocument                  // document.cookie assignment
	SourceCookieStore               // cookieStore.set()
)

func (s Source) String() string {
	switch s {
	case SourceHTTP:
		return "http"
	case SourceDocument:
		return "document.cookie"
	case SourceCookieStore:
		return "cookieStore"
	default:
		return "unknown"
	}
}

// ChangeKind classifies the effect a write had on the jar.
type ChangeKind int

// Change kinds.
const (
	ChangeCreated ChangeKind = iota
	ChangeOverwritten
	ChangeDeleted
	ChangeRejected
)

func (k ChangeKind) String() string {
	switch k {
	case ChangeCreated:
		return "created"
	case ChangeOverwritten:
		return "overwritten"
	case ChangeDeleted:
		return "deleted"
	case ChangeRejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Change describes one jar mutation; observers receive it synchronously.
type Change struct {
	Kind     ChangeKind
	Cookie   *Cookie // the new cookie (for deletions: the deletion record)
	Previous *Cookie // the cookie that was replaced or deleted, if any
	Source   Source
	Host     string // request host the write was evaluated against
}

// Observer receives jar mutations. Both the instrumentation extension and
// CookieGuard's background store hook in through this interface.
type Observer func(Change)

type storageKey struct {
	domain string
	path   string
	name   string
}

// memoKey identifies one rendered cookie-string computation.
type memoKey struct {
	url      string
	httpOnly bool
}

// memoEntry is a memoized rendering, valid while the jar generation is
// unchanged and no contributing cookie has expired.
type memoEntry struct {
	gen       uint64
	value     string
	minExpiry time.Time // earliest non-zero expiry among rendered cookies
}

// Jar is a cookie jar for a single browsing context. It is safe for
// concurrent use.
//
// The serialization paths (CookieHeader, DocumentCookie) are memoized:
// scripts poll document.cookie far more often than they write it, so the
// jar caches the rendered string per (URL, visibility) and invalidates
// on any mutation (a generation counter) or when a rendered cookie's
// expiry passes on the virtual clock. The memo is exact — it stores the
// identical string the slow path would produce — so observable behaviour
// is unchanged.
type Jar struct {
	clock Clock

	mu        sync.Mutex
	store     map[storageKey]*Cookie
	observers []Observer
	gen       uint64
	memo      map[memoKey]memoEntry
	scratch   []*Cookie // renderCookies match buffer, reused under mu
}

// New returns an empty jar using the given clock.
func New(clock Clock) *Jar {
	return &Jar{clock: clock, store: make(map[storageKey]*Cookie)}
}

// Observe registers an observer for all future mutations.
func (j *Jar) Observe(o Observer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.observers = append(j.observers, o)
}

func (j *Jar) notify(ch Change) {
	for _, o := range j.observers {
		o(ch)
	}
}

// SetFromHeader stores a cookie parsed from a Set-Cookie header received
// in a response from the request URL u. It returns the resulting change
// kind.
func (j *Jar) SetFromHeader(u *url.URL, header string) ChangeKind {
	return j.setURL(u, header, SourceHTTP)
}

// SetFromDocument stores a cookie from a document.cookie assignment made
// by a script running on pageURL. Scripts cannot create HttpOnly cookies;
// such an attribute on the assignment is ignored, matching browsers.
func (j *Jar) SetFromDocument(pageURL, assignment string) ChangeKind {
	return j.set(pageURL, assignment, SourceDocument)
}

// SetFromCookieStore stores a cookie via the CookieStore API.
func (j *Jar) SetFromCookieStore(pageURL string, c *Cookie) ChangeKind {
	if c == nil {
		return ChangeRejected
	}
	line := SerializeSetCookie(c)
	return j.set(pageURL, line, SourceCookieStore)
}

// SetFromCookieStoreAssignment stores a cookie via the CookieStore API
// from a Set-Cookie-style assignment line (used by the browser's cookie
// API surface, where options arrive as attributes such as Max-Age).
func (j *Jar) SetFromCookieStoreAssignment(pageURL, line string) ChangeKind {
	return j.set(pageURL, line, SourceCookieStore)
}

func (j *Jar) set(rawURL, line string, src Source) ChangeKind {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ChangeRejected
	}
	return j.setURL(u, line, src)
}

func (j *Jar) setURL(u *url.URL, line string, src Source) ChangeKind {
	if u.Hostname() == "" {
		return ChangeRejected
	}
	host := strings.ToLower(u.Hostname())
	now := j.clock.Now()

	c := ParseSetCookie(line, now)
	if c == nil {
		return ChangeRejected
	}
	if src != SourceHTTP {
		// Scripts cannot mint HttpOnly cookies.
		c.HttpOnly = false
	}

	// Domain attribute validation (RFC 6265 §5.3 steps 4–6).
	if c.Domain != "" {
		if suffix, _ := publicsuffix.PublicSuffix(c.Domain); suffix == c.Domain && c.Domain != host {
			return ChangeRejected // cannot set for a public suffix
		}
		if !domainMatch(host, c.Domain) {
			return ChangeRejected
		}
		c.HostOnly = false
	} else {
		c.Domain = host
		c.HostOnly = true
	}
	if c.Path == "" || !strings.HasPrefix(c.Path, "/") {
		c.Path = defaultPath(u.Path)
	}
	c.LastAccessed = now

	key := storageKey{domain: c.Domain, path: c.Path, name: c.Name}

	j.mu.Lock()
	prev := j.store[key]
	var kind ChangeKind
	switch {
	case c.Expired(now):
		// Expired write = deletion request.
		if prev == nil {
			j.mu.Unlock()
			return ChangeRejected
		}
		delete(j.store, key)
		kind = ChangeDeleted
	case prev != nil:
		c.Created = prev.Created // preserve creation time on overwrite
		j.store[key] = c
		kind = ChangeOverwritten
	default:
		j.store[key] = c
		kind = ChangeCreated
	}
	j.gen++ // any effective write invalidates memoized renderings
	obs := j.observers
	j.mu.Unlock()

	ch := Change{Kind: kind, Cookie: c, Previous: cloneOrNil(prev), Source: src, Host: host}
	for _, o := range obs {
		o(ch)
	}
	return kind
}

func cloneOrNil(c *Cookie) *Cookie {
	if c == nil {
		return nil
	}
	return c.Clone()
}

// requestTarget is the matching context derived from a request URL.
type requestTarget struct {
	host   string
	path   string
	secure bool
}

// parseTarget extracts the matching context; ok is false for URLs no
// cookie can match.
func parseTarget(rawURL string) (requestTarget, bool) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return requestTarget{}, false
	}
	return targetOf(u)
}

// targetOf is parseTarget for an already parsed URL.
func targetOf(u *url.URL) (requestTarget, bool) {
	if u.Hostname() == "" {
		return requestTarget{}, false
	}
	path := u.Path
	if path == "" {
		path = "/"
	}
	return requestTarget{
		host:   strings.ToLower(u.Hostname()),
		path:   path,
		secure: u.Scheme == "https",
	}, true
}

// match is the single RFC 6265 §5.4 send predicate, shared by every
// read path (cookiesFor and the memoized renderCookies) so the matching
// rules cannot drift apart. It assumes c is not expired.
func match(c *Cookie, t requestTarget, httpOnlyToo bool) bool {
	if c.HostOnly {
		if t.host != c.Domain {
			return false
		}
	} else if !domainMatch(t.host, c.Domain) {
		return false
	}
	if !pathMatch(t.path, c.Path) {
		return false
	}
	if c.Secure && !t.secure {
		return false
	}
	if c.HttpOnly && !httpOnlyToo {
		return false
	}
	return true
}

// cookiesFor returns the live cookies matching a request to rawURL,
// already sorted for serialization. httpOnlyToo includes HttpOnly cookies
// (HTTP requests see them; scripts do not).
func (j *Jar) cookiesFor(rawURL string, httpOnlyToo bool) []*Cookie {
	t, ok := parseTarget(rawURL)
	if !ok {
		return nil
	}
	now := j.clock.Now()

	j.mu.Lock()
	var out []*Cookie
	for key, c := range j.store {
		if c.Expired(now) {
			delete(j.store, key)
			j.gen++
			continue
		}
		if !match(c, t, httpOnlyToo) {
			continue
		}
		c.LastAccessed = now
		out = append(out, c.Clone())
	}
	j.mu.Unlock()

	sortCookies(out)
	return out
}

// renderCookies produces the serialized cookie string for a URL and
// visibility, through the memo: a hit returns the previously rendered
// string; a miss renders via cookiesFor and stores the result tagged
// with the jar generation and the earliest expiry it depends on. u is
// rawURL already parsed, or nil to parse it only on a miss.
func (j *Jar) renderCookies(rawURL string, u *url.URL, httpOnlyToo bool) string {
	now := j.clock.Now()
	key := memoKey{url: rawURL, httpOnly: httpOnlyToo}
	j.mu.Lock()
	if e, ok := j.memo[key]; ok && e.gen == j.gen &&
		(e.minExpiry.IsZero() || now.Before(e.minExpiry)) {
		j.mu.Unlock()
		return e.value
	}
	// Miss: render in place, under the same lock. Matching and ordering
	// share cookiesFor's predicate and comparator, but no cookies are
	// cloned — only name=value pairs leave the jar — and the sort reads
	// the stored cookies without mutating them.
	var t requestTarget
	var tok bool
	if u != nil {
		t, tok = targetOf(u)
	} else {
		t, tok = parseTarget(rawURL)
	}
	if !tok {
		j.mu.Unlock()
		return ""
	}

	matched := j.scratch[:0]
	var minExpiry time.Time
	for k, c := range j.store {
		if c.Expired(now) {
			delete(j.store, k)
			j.gen++
			continue
		}
		if !match(c, t, httpOnlyToo) {
			continue
		}
		matched = append(matched, c)
		if !c.Expires.IsZero() && (minExpiry.IsZero() || c.Expires.Before(minExpiry)) {
			minExpiry = c.Expires
		}
	}
	sortCookies(matched)
	// Render straight into one builder: the per-cookie Pair() strings and
	// the pairs slice the old strings.Join path allocated were among the
	// crawl's dominant allocations. Bytes are identical.
	var b strings.Builder
	n := 0
	for _, c := range matched {
		n += len(c.Name) + len(c.Value) + 3
	}
	b.Grow(n)
	for i, c := range matched {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(c.Name)
		b.WriteByte('=')
		b.WriteString(c.Value)
	}
	value := b.String()
	j.scratch = matched
	if j.memo == nil {
		j.memo = make(map[memoKey]memoEntry)
	}
	j.memo[key] = memoEntry{gen: j.gen, value: value, minExpiry: minExpiry}
	j.mu.Unlock()
	return value
}

// CookieHeader renders the Cookie request header value for a request to
// u (includes HttpOnly cookies). Empty string means no cookies. rawURL
// is the string u was parsed from; it keys the rendering memo, so the
// URL is never parsed again.
func (j *Jar) CookieHeader(rawURL string, u *url.URL) string {
	return j.renderCookies(rawURL, u, true)
}

// DocumentCookie implements the document.cookie getter for a page at
// rawURL: all matching non-HttpOnly cookies as "a=1; b=2".
func (j *Jar) DocumentCookie(rawURL string) string {
	return j.renderCookies(rawURL, nil, false)
}

// ScriptCookies returns the structured list of script-visible cookies for
// a page, the backing call for both document.cookie and cookieStore reads.
func (j *Jar) ScriptCookies(rawURL string) []*Cookie {
	return j.cookiesFor(rawURL, false)
}

// Get returns the first script-visible cookie with the given name for the
// page, or nil (the cookieStore.get() analogue).
func (j *Jar) Get(rawURL, name string) *Cookie {
	for _, c := range j.cookiesFor(rawURL, false) {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Delete removes the named cookie as cookieStore.delete() would: it issues
// an expired write for the page's host. Returns true if a cookie was
// deleted.
func (j *Jar) Delete(pageURL, name string) bool {
	// Find the cookie first so we expire it with its own domain/path.
	target := j.Get(pageURL, name)
	if target == nil {
		return false
	}
	line := name + "=; Path=" + target.Path + "; Max-Age=0"
	if !target.HostOnly {
		line += "; Domain=" + target.Domain
	}
	return j.set(pageURL, line, SourceCookieStore) == ChangeDeleted
}

// All returns a snapshot of every live cookie in the jar (for inspection
// and tests), in deterministic order.
func (j *Jar) All() []*Cookie {
	now := j.clock.Now()
	j.mu.Lock()
	out := make([]*Cookie, 0, len(j.store))
	for key, c := range j.store {
		if c.Expired(now) {
			delete(j.store, key)
			continue
		}
		out = append(out, c.Clone())
	}
	j.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if out[i].Domain != out[k].Domain {
			return out[i].Domain < out[k].Domain
		}
		if out[i].Name != out[k].Name {
			return out[i].Name < out[k].Name
		}
		return out[i].Path < out[k].Path
	})
	return out
}

// Len returns the number of live cookies.
func (j *Jar) Len() int {
	now := j.clock.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for key, c := range j.store {
		if c.Expired(now) {
			delete(j.store, key)
			continue
		}
		n++
	}
	return n
}

// Clear empties the jar.
func (j *Jar) Clear() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.store = make(map[storageKey]*Cookie)
	j.gen++
}
