// Package browser implements the browser engine simulator: page loading
// over a netsim fabric, HTML parsing, sequential and dynamically injected
// script execution with inclusion-chain tracking, SOP-isolated iframes,
// stack-based script attribution, virtual-clock load timing, and the
// pluggable cookie-API surface (document.cookie, cookieStore.get and
// cookieStore.set) where the measurement extension and CookieGuard
// interpose.
package browser

import (
	"strconv"

	"cookieguard/internal/cookiejar"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/urlutil"
)

// AccessContext identifies who is performing a cookie operation. It is the
// analogue of the JavaScript stack trace the paper's extension inspects to
// find "the last external script URL" (§6.2): the script that attribution
// needs is the innermost executing one, so that is all it carries.
type AccessContext struct {
	// PageURL is the URL of the document whose cookie jar is accessed.
	PageURL string
	// ScriptURL is the URL of the executing script; empty for inline
	// scripts and page-level code, whose origin cannot be attributed.
	// For deferred callbacks it is the registering script unless
	// attribution was dropped (paper §8, async loss).
	ScriptURL string
	// Inline reports that the executing code is an inline script.
	Inline bool
	// MainFrame reports whether the access happens in the main frame.
	MainFrame bool
}

// ScriptDomain returns the eTLD+1 of the executing script, or "" when
// unattributable.
func (c AccessContext) ScriptDomain() string {
	return urlutil.RegistrableDomain(c.ScriptURL)
}

// PageDomain returns the eTLD+1 of the page.
func (c AccessContext) PageDomain() string {
	return urlutil.RegistrableDomain(c.PageURL)
}

// CookieAPI is the cookie surface exposed to scripts. The browser installs
// a direct implementation over the jar; middleware (instrumentation,
// CookieGuard) wraps it — the Go equivalent of redefining document.cookie
// and cookieStore.get and .set with Object.defineProperty. Those are the
// calls the generated web makes; a script deletes through cookieStore by
// an expired set, which reaches the layers as a SetCookie.
//
// Both APIs write through SetCookie, as an assignment line the jar parses
// (cookiejar.ParseAssignment): a document.cookie assignment as the script
// wrote it, and a cookieStore.set call as the line RecordAssignment
// renders. A layer names the cookie and the operation by that parse, so
// no layer can read a write differently from the jar.
type CookieAPI interface {
	// GetDocumentCookie is the document.cookie getter, the one read path
	// of the document.cookie surface. It appends the cookies the access
	// may see to dst as name/value pairs, in the order the "a=1; b=2"
	// string lists them (jsdsl.CookiePair), and returns the extended
	// slice. dst belongs to the caller, which reuses it after the call:
	// an implementation may rewrite the pairs it appended (a filtering
	// layer drops pairs from what the layer below appended), but must
	// leave the pairs dst held on entry as they were and keep no
	// reference to dst.
	GetDocumentCookie(ctx AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair
	// SetCookie is the one script write: assignment is the line a
	// script wrote through src, cookiejar.SourceDocument or
	// cookiejar.SourceCookieStore.
	SetCookie(ctx AccessContext, src cookiejar.Source, assignment string)
	// StoreGet is cookieStore.get: the first cookie named name that the
	// access may see, in document.cookie order.
	StoreGet(ctx AccessContext, name string) (jsdsl.CookieRecord, bool)
}

// CookieMiddleware installs one cookie layer on a browser under
// construction: it returns next wrapped with the layer's behaviour, and
// in the same call may register jar observers on b (HTTP Set-Cookie
// capture) and bind b's clock. The browser's jar and clock exist when it
// runs; nothing has been fetched yet.
type CookieMiddleware func(b *Browser, next CookieAPI) CookieAPI

// directCookieAPI is the unwrapped browser behaviour: full access for
// every script in the frame, exactly the missing-isolation baseline the
// paper measures.
type directCookieAPI struct {
	jar *cookiejar.Jar
}

func (d *directCookieAPI) GetDocumentCookie(ctx AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	return d.jar.DocumentCookiePairs(ctx.PageURL, dst)
}

func (d *directCookieAPI) SetCookie(ctx AccessContext, src cookiejar.Source, assignment string) {
	d.jar.SetFromScript(ctx.PageURL, assignment, src)
}

func (d *directCookieAPI) StoreGet(ctx AccessContext, name string) (jsdsl.CookieRecord, bool) {
	c := d.jar.Get(ctx.PageURL, name)
	if c == nil {
		return jsdsl.CookieRecord{}, false
	}
	return c.Record(), true
}

// RecordAssignment renders a CookieRecord as a Set-Cookie-style assignment
// line, preserving Max-Age semantics: the line a cookieStore.set call
// writes through CookieAPI.SetCookie.
func RecordAssignment(rec jsdsl.CookieRecord) string {
	line := rec.Name + "=" + rec.Value
	if rec.Path != "" {
		line += "; Path=" + rec.Path
	}
	if rec.Domain != "" {
		line += "; Domain=" + rec.Domain
	}
	if rec.MaxAge != 0 {
		line += "; Max-Age=" + strconv.FormatInt(rec.MaxAge, 10)
	}
	if rec.Secure {
		line += "; Secure"
	}
	if rec.SameSite != "" {
		line += "; SameSite=" + rec.SameSite
	}
	return line
}
