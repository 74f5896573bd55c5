package cookiejar

import (
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"cookieguard/internal/jsdsl"
	"cookieguard/internal/publicsuffix"
	"cookieguard/internal/urlutil"
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
// Cookie and Previous are the jar's own cookies, valid only during the
// observer call (see Jar); observers must not write them.
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

// slabChunk is the number of cookies in one chunk of a jar's slab.
const slabChunk = 32

// jarRetainMax bounds what a released jar keeps for its next visit: at
// most this many cookie slots, and no store or memo map that held more
// entries than this (a Go map never shrinks). A pathological visit
// should not pin its jar's size in the pool.
const jarRetainMax = 256

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
// Every cookie the jar stores lives in its slab, chunks of cookies that
// never move, and is immutable from the write that stores it until
// Release: a later write takes a new slot and stores it in its place. So
// the memo's lists can hold the stored cookies themselves. The cookies an
// observer receives in a Change are slab cookies too; they are valid only
// during the observer call, since a pooled jar reuses its slots after
// Release. The methods that return cookies to callers return copies.
type Jar struct {
	clock Clock

	mu        sync.Mutex
	store     map[storageKey]*Cookie
	observers []Observer
	gen       uint64
	memo      map[string]*memoEntry
	spare     []*memoEntry // entries of released memos, for reuse

	// slab holds every cookie a write stored, and every deletion
	// record, since New or Release: slab[:chunks] are in use, and free
	// is the unused tail of the last of them.
	slab   [][]Cookie
	chunks int
	free   []Cookie

	// url is the parse of urlRaw, the most recent URL parsed for a
	// script write or a memo miss: every document.cookie access on a
	// page passes the same page URL. urlOK is false until the first
	// parse.
	url    url.URL
	urlRaw string
	urlOK  bool
}

// parseURL parses rawURL into the jar's own URL, reusing the previous
// parse when rawURL is the URL parsed last. The result is valid until
// the next call and must not be modified. j.mu must be held.
func (j *Jar) parseURL(rawURL string) (*url.URL, bool) {
	if j.urlOK && j.urlRaw == rawURL {
		return &j.url, true
	}
	if !urlutil.ParseCanonical(&j.url, rawURL) {
		// ParseCanonical left j.url alone, so it still holds the parse
		// of urlRaw if this parse fails too.
		u, err := url.Parse(rawURL)
		if err != nil {
			return nil, false
		}
		j.url = *u
	}
	j.urlRaw, j.urlOK = rawURL, true
	return &j.url, true
}

// New returns an empty jar using the given clock.
func New(clock Clock) *Jar {
	return &Jar{clock: clock, store: make(map[storageKey]*Cookie)}
}

// jarPool recycles jars across visits: a released jar keeps its maps,
// memo entries and slab chunks, within jarRetainMax.
var jarPool = sync.Pool{New: func() any { return New(nil) }}

// Acquire returns an empty pooled jar using the given clock. The caller
// owns it until Release.
func Acquire(clock Clock) *Jar {
	j := jarPool.Get().(*Jar)
	j.clock = clock
	return j
}

// Release empties the jar and returns it to the pool. After it returns,
// nothing may touch the jar or any cookie it handed out in a Change.
func (j *Jar) Release() {
	j.reset()
	jarPool.Put(j)
}

// reset empties the jar, keeping its maps, memo entries and slab chunks
// within jarRetainMax for the next visit.
func (j *Jar) reset() {
	j.mu.Lock()
	defer j.mu.Unlock()
	used := j.chunks*slabChunk - len(j.free)
	for _, c := range j.slab[:j.chunks] {
		clear(c)
	}
	if len(j.slab) > jarRetainMax/slabChunk {
		clear(j.slab[jarRetainMax/slabChunk:])
		j.slab = j.slab[:jarRetainMax/slabChunk]
	}
	j.chunks, j.free = 0, nil
	// Every stored cookie took a slot, so used bounds the store's size.
	if used > jarRetainMax {
		j.store = make(map[storageKey]*Cookie)
	} else {
		clear(j.store)
	}
	if used > jarRetainMax || len(j.memo) > jarRetainMax {
		j.memo, j.spare = nil, empty(j.spare)
	} else {
		for _, e := range j.memo {
			e.cookies = empty(e.cookies) // refilled before it is read
			j.spare = append(j.spare, e)
		}
		clear(j.memo)
	}
	j.observers = empty(j.observers)
	j.url, j.urlRaw, j.urlOK = url.URL{}, "", false
	j.clock = nil
}

// empty zeroes s to its capacity and returns it with length zero.
func empty[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// newCookieLocked stores c in a free slot of the slab and returns the
// slot. j.mu must be held.
func (j *Jar) newCookieLocked(c *Cookie) *Cookie {
	if len(j.free) == 0 {
		if j.chunks == len(j.slab) {
			j.slab = append(j.slab, make([]Cookie, slabChunk))
		}
		j.free = j.slab[j.chunks]
		j.chunks++
	}
	s := &j.free[0]
	j.free = j.free[1:]
	*s = *c
	return s
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
	j.mu.Lock()
	return j.notify(j.setLocked(u, header, SourceHTTP))
}

// SetFromScript stores a cookie from an assignment line a script running
// on pageURL wrote through src, SourceDocument or SourceCookieStore: a
// document.cookie assignment, or the line a cookieStore.set call renders
// to. Scripts cannot create HttpOnly cookies; such an attribute on the
// line is ignored, matching browsers.
func (j *Jar) SetFromScript(pageURL, line string, src Source) ChangeKind {
	j.mu.Lock()
	ch := Change{Kind: ChangeRejected}
	if u, ok := j.parseURL(pageURL); ok {
		ch = j.setLocked(u, line, src)
	}
	return j.notify(ch)
}

// notify releases j.mu, which the caller holds, and hands an effective
// change to the observers registered when it was made.
func (j *Jar) notify(ch Change) ChangeKind {
	obs := j.observers
	j.mu.Unlock()
	if ch.Kind != ChangeRejected {
		for _, o := range obs {
			o(ch)
		}
	}
	return ch.Kind
}

// setLocked applies the cookie line written through src for the request
// or page URL u and returns the change it made. j.mu must be held.
func (j *Jar) setLocked(u *url.URL, line string, src Source) Change {
	rejected := Change{Kind: ChangeRejected}
	if u.Hostname() == "" {
		return rejected
	}
	host := strings.ToLower(u.Hostname())
	now := j.clock.Now()

	c, ok := ParseSetCookie(line, now)
	if !ok {
		return rejected
	}
	if src != SourceHTTP {
		// Scripts cannot mint HttpOnly cookies.
		c.HttpOnly = false
	}

	// Domain attribute validation (RFC 6265 §5.3 steps 4–6).
	if c.Domain != "" {
		if suffix, _ := publicsuffix.PublicSuffix(c.Domain); suffix == c.Domain && c.Domain != host {
			return rejected // cannot set for a public suffix
		}
		if !domainMatch(host, c.Domain) {
			return rejected
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
			return rejected
		}
		delete(j.store, key)
		kind = ChangeDeleted
	case prev != nil:
		c.Created = prev.Created // preserve creation time on overwrite
		kind = ChangeOverwritten
	default:
		kind = ChangeCreated
	}
	stored := j.newCookieLocked(&c)
	if kind != ChangeDeleted {
		j.store[key] = stored
	}
	j.gen++ // any effective write invalidates memoized renderings
	return Change{Kind: kind, Cookie: stored, Previous: prev, Source: src, Host: host}
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
		if n := len(j.spare); n > 0 {
			e, j.spare = j.spare[n-1], j.spare[:n-1]
		} else {
			e = new(memoEntry)
		}
		// Room for every stored cookie: the first fill does not grow it.
		e.cookies = slices.Grow(e.cookies, len(j.store))
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
