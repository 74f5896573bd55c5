// Package guard implements CookieGuard, the paper's defense (§6): runtime
// isolation of first-party cookies on a per-script-domain basis.
//
// The architecture mirrors the browser extension's three components
// (§6.2, Figure 4):
//
//   - Background — the metadata store mapping each first-party cookie to
//     the eTLD+1 of its creator, updated on every creation event from
//     both JavaScript APIs and HTTP Set-Cookie headers;
//   - ContentRelay — the messaging hop between page world and background
//     (contentScript.js), crossed once per cookie operation. It is
//     modeled on the virtual clock (Policy.PerOpOverheadMS), not by a
//     goroutine: the page wrapper reads the store synchronously;
//   - PageWrapper — the wrapped document.cookie, cookieStore.get and
//     cookieStore.set surface (cookieGuard.js), installed as a
//     browser.CookieMiddleware. The one Guard.Middleware call that
//     installs it also registers the background's Set-Cookie observer
//     on the browser's jar and binds the browser's clock for the relay
//     charge. Writes through either
//     API reach it as one assignment line (browser.CookieAPI.SetCookie),
//     and it names the cookie by the jar's own parse of that line, so a
//     write the jar stores as x is checked against x's creator.
//
// Policy (§6.1): a script reads only the cookies its own eTLD+1 created;
// scripts from the visited site's domain retain full access (owner
// full-access); inline scripts are denied in Strict mode or treated as
// first-party in Relaxed mode; an optional entity whitelist groups
// same-owner domains (e.g. facebook.com/fbcdn.net), the refinement that
// reduces breakage from 11% to 3% (§7.2).
package guard

import (
	"sync"

	"cookieguard/internal/browser"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/entity"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/publicsuffix"
	"cookieguard/internal/vclock"
)

// InlineMode selects how unattributable inline scripts are treated.
type InlineMode int

// Inline-script handling modes (§6.1).
const (
	// InlineStrict denies inline scripts all cookie access
	// (safe-by-default; used in the paper's evaluation).
	InlineStrict InlineMode = iota
	// InlineRelaxed treats inline scripts as first-party.
	InlineRelaxed
)

// Policy configures enforcement.
type Policy struct {
	// Inline selects strict or relaxed inline-script handling.
	Inline InlineMode
	// OwnerFullAccess grants scripts from the visited site's own
	// domain access to every first-party cookie (§6.1). The paper's
	// deployment enables this to avoid breaking site functionality.
	OwnerFullAccess bool
	// Entities, when non-nil, groups domains of the same owner: a
	// script may access cookies created by any domain of its entity,
	// and site ownership extends to the site's entity (§7.2 whitelist).
	Entities *entity.Map
	// PerOpOverheadMS is the virtual cost of one page↔background
	// message round trip, charged to the browser clock when bound
	// (drives the Table 4 overhead measurements). This charge is the
	// whole model of the ContentRelay hop; no message is really sent.
	PerOpOverheadMS float64
}

// DefaultPolicy is the configuration evaluated in the paper: strict
// inline handling, owner full access, no whitelist. The per-op overhead
// models the synchronous page↔content-script↔background message round
// trip of the extension, which dominates its measured slowdown (§7.3).
func DefaultPolicy() Policy {
	return Policy{Inline: InlineStrict, OwnerFullAccess: true, PerOpOverheadMS: 1.8}
}

// WhitelistPolicy is DefaultPolicy plus the entity whitelist.
func WhitelistPolicy(m *entity.Map) Policy {
	p := DefaultPolicy()
	p.Entities = m
	return p
}

// BlockKind classifies a blocked or filtered operation.
type BlockKind string

// Block kinds. A blocked script write, a document.cookie assignment or a
// cookieStore.set, is a BlockDelete exactly when the jar would have
// deleted by it (an expired write), and a BlockWrite otherwise.
const (
	BlockRead   BlockKind = "read-filtered"
	BlockWrite  BlockKind = "write-blocked"
	BlockDelete BlockKind = "delete-blocked"
	BlockInline BlockKind = "inline-denied"
)

// BlockEvent records one enforcement decision.
type BlockEvent struct {
	Kind     BlockKind
	Name     string // affected cookie ("" for full-jar reads)
	Accessor string // eTLD+1 of the acting script
	Creator  string // recorded creator of the cookie
}

// Guard is one CookieGuard instance, scoped to one page visit (matching
// the extension's per-tab state).
type Guard struct {
	policy Policy

	bg    *background
	clock *vclock.Clock

	mu     sync.Mutex
	blocks []BlockEvent
}

// New creates a Guard with the given policy and an empty background
// store.
func New(policy Policy) *Guard {
	return &Guard{policy: policy, bg: newBackground()}
}

// Middleware returns the guard's cookie layer. Installed on a browser,
// it binds the browser's clock for overhead accounting, registers the
// background's observer of HTTP Set-Cookie creations (background.js's
// webRequest hook) on the browser's jar, and wraps the cookie API below
// it with the PageWrapper. A guard serves one browser.
func (g *Guard) Middleware() browser.CookieMiddleware {
	return func(b *browser.Browser, next browser.CookieAPI) browser.CookieAPI {
		g.clock = b.Clock()
		b.Jar().Observe(g.observeHTTP)
		return &pageWrapper{g: g, next: next}
	}
}

// observeHTTP records the creator of each cookie an HTTP response
// creates: the eTLD+1 of the responding host.
func (g *Guard) observeHTTP(ch cookiejar.Change) {
	if ch.Source != cookiejar.SourceHTTP || ch.Cookie.HttpOnly {
		return
	}
	if ch.Kind == cookiejar.ChangeCreated {
		g.bg.record(ch.Cookie.Name, publicsuffix.RegistrableDomain(ch.Host))
	}
}

// Blocks returns the enforcement log.
func (g *Guard) Blocks() []BlockEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]BlockEvent, len(g.blocks))
	copy(out, g.blocks)
	return out
}

func (g *Guard) logBlock(ev BlockEvent) {
	g.mu.Lock()
	g.blocks = append(g.blocks, ev)
	g.mu.Unlock()
}

func (g *Guard) chargeOverhead() {
	if g.clock != nil && g.policy.PerOpOverheadMS > 0 {
		g.clock.AdvanceMillis(g.policy.PerOpOverheadMS)
	}
}

// accessor resolves the acting principal's domain; ok=false means access
// is denied outright (strict inline).
func (g *Guard) accessor(ctx browser.AccessContext) (domain string, ok bool) {
	if ctx.Inline {
		if g.policy.Inline == InlineStrict {
			return "", false
		}
		return ctx.PageDomain(), true
	}
	if ctx.ScriptURL == "" {
		// Page-level code (no script): the site itself.
		return ctx.PageDomain(), true
	}
	return ctx.ScriptDomain(), true
}

// isSiteOwner reports whether domain is the visited site (or its entity,
// under the whitelist).
func (g *Guard) isSiteOwner(domain, siteDomain string) bool {
	if !g.policy.OwnerFullAccess {
		return false
	}
	if domain == siteDomain {
		return true
	}
	return g.policy.Entities != nil && g.policy.Entities.SameEntity(domain, siteDomain)
}

// mayAccess reports whether accessor may touch a cookie created by
// creator on site.
func (g *Guard) mayAccess(accessor, creator, site string) bool {
	if g.isSiteOwner(accessor, site) {
		return true
	}
	if creator == "" {
		// Unattributed cookie (predates the guard or set by denied
		// inline code): owned by the site.
		return accessor == site
	}
	if accessor == creator {
		return true
	}
	return g.policy.Entities != nil && g.policy.Entities.SameEntity(accessor, creator)
}

// --- PageWrapper (cookieGuard.js) ----------------------------------------

type pageWrapper struct {
	g    *Guard
	next browser.CookieAPI
}

// GetDocumentCookie filters the pairs the layer below appends to dst in
// place: a name listed twice (one name under two paths or domains) keeps
// its first position and takes its last value, as a parse of the
// document.cookie string would read it, and the pairs accessor may not
// read are dropped.
func (p *pageWrapper) GetDocumentCookie(ctx browser.AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return dst
	}
	base := len(dst)
	dst = p.next.GetDocumentCookie(ctx, dst)
	site := ctx.PageDomain()
	if g.isSiteOwner(accessor, site) {
		return dst
	}
	out, filtered := g.filterPairs(dst, base, accessor, site)
	if filtered {
		g.logBlock(BlockEvent{Kind: BlockRead, Accessor: accessor})
	}
	return out
}

// filterPairs filters pairs[base:] in place for accessor on site, as
// GetDocumentCookie describes, and reports whether any pair was dropped.
// Every pair of a name is kept or dropped alike, so one pass does both:
// a refused pair is dropped, and a kept one either updates its name's
// earlier kept pair or is kept.
func (g *Guard) filterPairs(pairs []jsdsl.CookiePair, base int, accessor, site string) ([]jsdsl.CookiePair, bool) {
	out, filtered := pairs[:base], false
next:
	for _, pr := range pairs[base:] {
		if !g.mayAccess(accessor, g.bg.creatorOf(pr.Name), site) {
			filtered = true
			continue
		}
		for i := base; i < len(out); i++ {
			if out[i].Name == pr.Name {
				out[i].Value = pr.Value
				continue next
			}
		}
		out = append(out, pr)
	}
	return out, filtered
}

// SetCookie enforces a script write, through either API, by the name the
// jar's own parser (cookiejar.ParseAssignment) reads from the line; a
// line with no name, which the jar would reject, is dropped. A write to a
// cookie another domain created is blocked, as BlockDelete when the jar
// would have treated it as a deletion (Assignment.Expired on the
// browser's clock) and as BlockWrite otherwise.
func (p *pageWrapper) SetCookie(ctx browser.AccessContext, src cookiejar.Source, assignment string) {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return
	}
	as, ok := cookiejar.ParseAssignment(assignment)
	if !ok {
		return
	}
	name := as.Name
	site := ctx.PageDomain()
	creator, exists := g.bg.lookup(name)
	if !exists {
		// Creation: record the accessor as creator and pass through.
		g.bg.record(name, accessor)
		p.next.SetCookie(ctx, src, assignment)
		return
	}
	if g.mayAccess(accessor, creator, site) {
		p.next.SetCookie(ctx, src, assignment)
		return
	}
	kind := BlockWrite
	if as.Expired(g.clock.Now()) {
		kind = BlockDelete
	}
	g.logBlock(BlockEvent{Kind: kind, Name: name, Accessor: accessor, Creator: creator})
}

func (p *pageWrapper) StoreGet(ctx browser.AccessContext, name string) (jsdsl.CookieRecord, bool) {
	g := p.g
	g.chargeOverhead()
	accessor, ok := g.accessor(ctx)
	if !ok {
		g.logBlock(BlockEvent{Kind: BlockInline, Accessor: "inline"})
		return jsdsl.CookieRecord{}, false
	}
	site := ctx.PageDomain()
	if !g.isSiteOwner(accessor, site) {
		if creator := g.bg.creatorOf(name); !g.mayAccess(accessor, creator, site) {
			g.logBlock(BlockEvent{Kind: BlockRead, Name: name, Accessor: accessor, Creator: creator})
			return jsdsl.CookieRecord{}, false
		}
	}
	return p.next.StoreGet(ctx, name)
}
