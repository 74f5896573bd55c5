package jsdsl

// CookieRecord is the structured cookie view the CookieStore builtins
// exchange with the host (mirroring the CookieStore API's cookie objects).
type CookieRecord struct {
	Name     string
	Value    string
	Domain   string
	Path     string
	MaxAge   int64 // seconds; 0 = session
	Secure   bool
	SameSite string
}

// CookiePair is one name=value pair of document.cookie. The pairs a Host
// hands back are those of the rendered string in serialization order, and
// a name may repeat (one name under two paths or domains). Every name is
// non-empty and free of '=' and ';', every value is free of ';', and
// neither has surrounding white space, so ParseCookieString of the pairs
// joined with "; " reads back the same pairs, the last value of a
// repeated name winning at its first position.
type CookiePair struct {
	Name  string
	Value string
}

// Host is the browser-side surface a SiteScript program can touch. It is
// implemented by the page execution context (internal/browser) and is the
// single choke point where both the measurement instrumentation and
// CookieGuard interpose — the Go equivalent of wrapping document.cookie
// and cookieStore with Object.defineProperty (paper §4.1, §6.2).
type Host interface {
	// DocCookie is the document.cookie getter: it appends the
	// script-visible cookies to dst as name/value pairs, in the order the
	// "a=1; b=2" string lists them, and returns the extended slice. dst
	// belongs to the caller, which reuses it after the call; the host
	// appends only and must not keep it.
	DocCookie(dst []CookiePair) []CookiePair
	// SetDocCookie is the document.cookie setter: one Set-Cookie-style
	// assignment string.
	SetDocCookie(assignment string)

	// CookieStore API (structured, §2.3): get and set. A script deletes
	// by setting an expired cookie.
	CookieStoreGet(name string) (CookieRecord, bool)
	CookieStoreSet(rec CookieRecord)

	// Send issues a GET request to url with the parameters
	// keys[i]=vals[i] appended to its query string (the exfiltration
	// channel). keys are sorted and distinct. Both slices are borrowed
	// for the call: the interpreter reuses them afterwards, so the host
	// must copy anything it keeps.
	Send(url string, keys, vals []string)
	// Inject dynamically inserts a script element with the given src
	// (indirect inclusion, §5.6).
	Inject(src string)

	// DOM writes, each attributed to the running script (the §8 pilot's
	// cross-domain DOM modifications). Scripts never read the DOM back.
	DOMSetText(id, text string) bool
	DOMSetStyle(id, prop, value string) bool
	// DOMInsert inserts a tag element with the attributes
	// keys[i]=vals[i] under the element parentID. keys are sorted and
	// distinct, and both slices are borrowed for the call, as for Send.
	DOMInsert(parentID, tag string, keys, vals []string) bool
	DOMRemove(id string) bool

	// OnClick registers a callback run when the user clicks anywhere
	// (how widget scripts react to the crawler's interaction step).
	OnClick(cb func())
	// OnClickID registers a callback run only when the element with the
	// given id is clicked (how the consent banner's accept/reject/
	// dismiss buttons react to a persona's targeted click).
	OnClickID(id string, cb func())
	// DeferRun schedules cb to run after the current script finishes
	// (setTimeout(0) analogue; attribution may detach, paper §8).
	DeferRun(cb func())

	// Environment.
	NowMillis() int64 // Date.now()
	// AppendRandID appends a pseudo-random identifier of n hex chars to
	// b and returns the extended slice; rand_id calls it with the
	// interpreter's own buffer, so the identifier is never a string of
	// its own when it is part of a + chain.
	AppendRandID(b []byte, n int) []byte
	PageURL() string // location.href
	Log(msg string)  // console.log
}

// NopHost is a Host that does nothing; useful for pure-language tests.
type NopHost struct {
	Logs []string
}

// DocCookie implements Host.
func (h *NopHost) DocCookie(dst []CookiePair) []CookiePair { return dst }

// SetDocCookie implements Host.
func (h *NopHost) SetDocCookie(string) {}

// CookieStoreGet implements Host.
func (h *NopHost) CookieStoreGet(string) (CookieRecord, bool) { return CookieRecord{}, false }

// CookieStoreSet implements Host.
func (h *NopHost) CookieStoreSet(CookieRecord) {}

// Send implements Host.
func (h *NopHost) Send(string, []string, []string) {}

// Inject implements Host.
func (h *NopHost) Inject(string) {}

// DOMSetText implements Host.
func (h *NopHost) DOMSetText(string, string) bool { return false }

// DOMSetStyle implements Host.
func (h *NopHost) DOMSetStyle(string, string, string) bool { return false }

// DOMInsert implements Host.
func (h *NopHost) DOMInsert(string, string, []string, []string) bool { return false }

// DOMRemove implements Host.
func (h *NopHost) DOMRemove(string) bool { return false }

// OnClick implements Host.
func (h *NopHost) OnClick(func()) {}

// OnClickID implements Host.
func (h *NopHost) OnClickID(string, func()) {}

// DeferRun implements Host: callbacks run immediately, nested in the
// script that deferred them, so Run reports their errors and a callback
// that defers itself nests until maxCallDepth stops it.
func (h *NopHost) DeferRun(cb func()) { cb() }

// NowMillis implements Host.
func (h *NopHost) NowMillis() int64 { return 0 }

// AppendRandID implements Host: the identifier is all 'a's.
func (h *NopHost) AppendRandID(b []byte, n int) []byte {
	for range n {
		b = append(b, 'a')
	}
	return b
}

// PageURL implements Host.
func (h *NopHost) PageURL() string { return "https://nop.example/" }

// Log implements Host.
func (h *NopHost) Log(msg string) { h.Logs = append(h.Logs, msg) }

var _ Host = (*NopHost)(nil)
