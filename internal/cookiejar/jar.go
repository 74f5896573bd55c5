package cookiejar

import (
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cookieguard/internal/jsdsl"
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
// Cookie and Previous are the jar's own cookies, which it never writes
// again (see Jar); observers must not write them either.
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

// memoEntry is the memoized list of cookies scripts on one URL can see,
// sorted for serialization, valid while the jar generation is unchanged
// and none of the listed cookies has expired.
type memoEntry struct {
	gen       uint64
	cookies   []*Cookie
	minExpiry time.Time // earliest non-zero expiry among the cookies
}

// Jar is a cookie jar for a single browsing context. It is safe for
// concurrent use.
//
// Scripts are the jar's only readers: the browser sends no Cookie request
// header, since nothing in the simulated web reads one. Every read goes
// through one memo, because scripts poll document.cookie far more often
// than they write it: per URL, the jar keeps the sorted list of cookies
// scripts there can see, and refills it in place after any mutation (a
// generation counter) or once a listed cookie's expiry passes on the
// virtual clock. The memo is exact — it holds the list a fresh match
// would produce — so observable behaviour is unchanged.
//
// A *Cookie in the store is never written after it enters the store: a
// write stores a new cookie in its place. So the memo's lists, and the
// cookies observers receive in a Change, can hold the stored cookies
// themselves. The methods that return cookies to callers return copies.
type Jar struct {
	clock Clock

	mu        sync.Mutex
	store     map[storageKey]*Cookie
	observers []Observer
	gen       uint64
	memo      map[string]*memoEntry

	// lastURL is the most recent URL parsed for a script write or a
	// memo miss: every document.cookie access on a page passes the
	// same page URL. The parsed URL is shared and never modified.
	lastURL atomic.Pointer[parsedURL]
}

// parsedURL is a raw URL string and its parse.
type parsedURL struct {
	raw string
	u   *url.URL
}

// parseURL parses rawURL, reusing the previous parse when rawURL is the
// URL parsed last. The result must not be modified.
func (j *Jar) parseURL(rawURL string) (*url.URL, bool) {
	if p := j.lastURL.Load(); p != nil && p.raw == rawURL {
		return p.u, true
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, false
	}
	j.lastURL.Store(&parsedURL{raw: rawURL, u: u})
	return u, true
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

// SetFromHeader stores a cookie parsed from a Set-Cookie header received
// in a response from the request URL u. It returns the resulting change
// kind.
func (j *Jar) SetFromHeader(u *url.URL, header string) ChangeKind {
	return j.setURL(u, header, SourceHTTP)
}

// SetFromScript stores a cookie from an assignment line a script running
// on pageURL wrote through src, SourceDocument or SourceCookieStore: a
// document.cookie assignment, or the line a cookieStore.set call renders
// to. Scripts cannot create HttpOnly cookies; such an attribute on the
// line is ignored, matching browsers.
func (j *Jar) SetFromScript(pageURL, line string, src Source) ChangeKind {
	u, ok := j.parseURL(pageURL)
	if !ok {
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
	key := storageKey{domain: c.Domain, path: c.Path, name: c.Name}

	j.mu.Lock()
	prev := j.store[key]
	if prev != nil && prev.Expired(now) {
		// An expired cookie is gone (RFC 6265 §5.3): evict it here, so
		// whether a read purged it first cannot turn this write into an
		// overwrite that inherits its creation time.
		delete(j.store, key)
		prev = nil
	}
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

	ch := Change{Kind: kind, Cookie: c, Previous: prev, Source: src, Host: host}
	for _, o := range obs {
		o(ch)
	}
	return kind
}

// requestTarget is the matching context derived from a request URL.
type requestTarget struct {
	host   string
	path   string
	secure bool
}

// parseTarget extracts the matching context; ok is false for URLs no
// cookie can match.
func (j *Jar) parseTarget(rawURL string) (requestTarget, bool) {
	u, ok := j.parseURL(rawURL)
	if !ok || u.Hostname() == "" {
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

// match is the RFC 6265 §5.4 send predicate for a script on the target:
// HttpOnly cookies never match. It assumes c is not expired.
func match(c *Cookie, t requestTarget) bool {
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
	return !c.HttpOnly
}

// visibleLocked returns the stored cookies scripts on rawURL can see,
// sorted for serialization, from the URL's memo entry. A miss runs the
// jar's one matching loop, behind every read: it purges expired cookies
// and refills the entry's list in place. The cookies are the stored ones
// and the list is the memo's: neither may be modified or kept past j.mu.
// j.mu must be held.
func (j *Jar) visibleLocked(rawURL string, now time.Time) []*Cookie {
	e := j.memo[rawURL]
	if e != nil && e.gen == j.gen && (e.minExpiry.IsZero() || now.Before(e.minExpiry)) {
		return e.cookies
	}
	if e == nil {
		if j.memo == nil {
			j.memo = make(map[string]*memoEntry)
		}
		// Room for every stored cookie: the first fill does not grow it.
		e = &memoEntry{cookies: make([]*Cookie, 0, len(j.store))}
		j.memo[rawURL] = e
	}
	matched, minExpiry := e.cookies[:0], time.Time{}
	if t, ok := j.parseTarget(rawURL); ok {
		for k, c := range j.store {
			if c.Expired(now) {
				delete(j.store, k)
				j.gen++
				continue
			}
			if !match(c, t) {
				continue
			}
			matched = append(matched, c)
			if !c.Expires.IsZero() && (minExpiry.IsZero() || c.Expires.Before(minExpiry)) {
				minExpiry = c.Expires
			}
		}
		sortCookies(matched)
	}
	e.gen, e.cookies, e.minExpiry = j.gen, matched, minExpiry
	return matched
}

// DocumentCookiePairs implements the document.cookie getter for a page
// at rawURL: it appends the matching non-HttpOnly cookies to dst as
// name/value pairs, in serialization order, and returns the extended
// slice. dst belongs to the caller; the jar keeps no reference to it.
func (j *Jar) DocumentCookiePairs(rawURL string, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	now := j.clock.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, c := range j.visibleLocked(rawURL, now) {
		dst = append(dst, jsdsl.CookiePair{Name: c.Name, Value: c.Value})
	}
	return dst
}

// ScriptRecords is the cookieStore.getAll() analogue: the cookies
// DocumentCookiePairs lists for a page at rawURL, as records, in one
// exact-size slice.
func (j *Jar) ScriptRecords(rawURL string) []jsdsl.CookieRecord {
	now := j.clock.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	cs := j.visibleLocked(rawURL, now)
	out := make([]jsdsl.CookieRecord, len(cs))
	for i, c := range cs {
		out[i] = c.Record()
	}
	return out
}

// Get returns a copy of the first script-visible cookie with the given
// name for the page, in serialization order, or nil (the
// cookieStore.get() analogue).
func (j *Jar) Get(rawURL, name string) *Cookie {
	now := j.clock.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, c := range j.visibleLocked(rawURL, now) {
		if c.Name == name {
			return c.Clone()
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
	return j.SetFromScript(pageURL, line, SourceCookieStore) == ChangeDeleted
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
