package webgen

import (
	"fmt"
	"slices"
	"strings"

	"cookieguard/internal/stats"
)

// servicePicker indexes the universe for site planning.
type servicePicker struct {
	cfg Config

	setters     []*Service // analytics/pixels: set cookies, no cross-domain ops
	exfil       []*Service // targeted RTB + ID sync
	bulkExfil   []*Service
	overwriters []*Service
	deleters    []*Service
	consent     []*Service
	functional  []*Service // widgets + CDN libs
	perfSDK     []*Service
	csReader    *Service
	domMod      *Service
	adRender    *Service
	tagManager  *Service

	ownerOf map[string]*Service // cookie name -> setting service

	zipfSetters *stats.Zipf
	zipfExfil   *stats.Zipf
	zipfFunc    *stats.Zipf
}

func newServicePicker(services []*Service, cfg Config) *servicePicker {
	p := &servicePicker{cfg: cfg, ownerOf: map[string]*Service{}}
	for _, s := range services {
		for _, c := range s.Cookies {
			if _, dup := p.ownerOf[c.Name]; !dup {
				p.ownerOf[c.Name] = s
			}
		}
		switch s.Kind {
		case KindAnalytics, KindPixel:
			p.setters = append(p.setters, s)
		case KindRTB, KindIDSync:
			p.exfil = append(p.exfil, s)
		case KindBulkRTB:
			p.bulkExfil = append(p.bulkExfil, s)
		case KindOverwriter:
			p.overwriters = append(p.overwriters, s)
		case KindDeleter:
			p.deleters = append(p.deleters, s)
		case KindConsent:
			p.consent = append(p.consent, s)
		case KindWidget, KindCDNLib:
			p.functional = append(p.functional, s)
		case KindPerfSDK:
			p.perfSDK = append(p.perfSDK, s)
		case KindCSReader:
			p.csReader = s
		case KindDOMMod:
			p.domMod = s
		case KindAdRender:
			p.adRender = s
		case KindTagManager:
			if s.Name == "googletagmanager" {
				p.tagManager = s
			} else {
				p.exfil = append(p.exfil, s) // adobe launch behaves as tracker slot
			}
		}
	}
	// Popularity: named services first in each slice → low Zipf ranks →
	// the head of Figure 2's distribution.
	p.zipfSetters = stats.NewZipf(len(p.setters), 1.1)
	p.zipfExfil = stats.NewZipf(len(p.exfil), 1.1)
	p.zipfFunc = stats.NewZipf(len(p.functional), 1.0)
	return p
}

// pickDistinct appends to chosen up to n services sampled by popularity,
// skipping any already chosen. A site chooses a few dozen services at
// most, so a scan of chosen is cheaper than a set.
func pickDistinct(rng *stats.Rand, z *stats.Zipf, pool []*Service, n int, chosen []*Service) []*Service {
	want := len(chosen) + n
	for tries := 0; len(chosen) < want && tries < n*20; tries++ {
		if s := pool[z.Sample(rng)]; !slices.Contains(chosen, s) {
			chosen = append(chosen, s)
		}
	}
	return chosen
}

// planServices decides which services a site includes and how (direct vs
// injected via the tag-manager container).
func planServices(cfg Config, s *Site, rng *stats.Rand, picker *servicePicker) {
	f := s.Flags

	// Total third-party script budget (mean ≈ 19 with a heavy tail).
	n := 1 + rng.Poisson(cfg.MeanTPBase)
	if rng.Bool(cfg.PHeavySite) {
		n += rng.Poisson(cfg.MeanTPHeavy)
	}

	// The budget plus room for the mandatory picks below, which may
	// exceed it on a small budget.
	chosen := make([]*Service, 0, n+16)
	include := func(svc *Service) {
		if svc != nil && !slices.Contains(chosen, svc) {
			chosen = append(chosen, svc)
		}
	}

	// Mandatory picks realizing the site's planned behaviours.
	if f.Exfil {
		if f.BulkExfil {
			include(stats.Pick(rng, picker.bulkExfil))
		}
		k := 1 + rng.Intn(3)
		chosen = pickDistinct(rng, picker.zipfExfil, picker.exfil, k, chosen)
		// Guarantee setters exist for the exfiltrators' main targets.
		include(picker.ownerOf["_ga"])  // google-analytics or gtm
		include(picker.ownerOf["_fbp"]) // facebook pixel
	}
	if f.Overwrite {
		ow := stats.Pick(rng, picker.overwriters)
		include(ow)
		for _, tgt := range ow.Targets {
			include(picker.ownerOf[tgt])
		}
	}
	if f.Delete {
		del := stats.Pick(rng, picker.deleters)
		include(del)
		for i, tgt := range del.Targets {
			if i >= 3 {
				break
			}
			include(picker.ownerOf[tgt])
		}
	}
	if f.CookieStore {
		include(picker.perfSDK[rng.Intn(len(picker.perfSDK))])
	}
	if f.CSExfil {
		include(picker.csReader)
	}
	if f.DOMMod {
		include(picker.domMod)
	}
	if f.AdSlot {
		include(picker.adRender)
		include(picker.ownerOf["IDE"]) // a bid-cookie owner
	}

	// Fill the remaining budget: ~70% trackers, 30% functional.
	remaining := n - len(chosen)
	if remaining > 0 {
		trackers := int(float64(remaining)*0.70 + 0.5)
		functional := remaining - trackers
		chosen = pickDistinct(rng, picker.zipfSetters, picker.setters, trackers, chosen)
		chosen = pickDistinct(rng, picker.zipfFunc, picker.functional, functional, chosen)
	}

	// Partition into direct vs tag-manager-injected (§5.6). Sites with a
	// tag manager include it directly; it injects the indirect share.
	s.HasTagManager = len(chosen) >= 3 && picker.tagManager != nil
	if s.HasTagManager {
		include(picker.tagManager)
	}
	// Both lists share one array: direct services fill it from the
	// front, injected ones from the back, reversed into order after.
	split := make([]*Service, len(chosen))
	d, j := 0, len(split)
	for _, svc := range chosen {
		direct := !s.HasTagManager || svc == picker.tagManager ||
			rng.Bool(cfg.PDirectInclusion)
		if direct {
			split[d] = svc
			d++
		} else {
			j--
			split[j] = svc
		}
	}
	slices.Reverse(split[j:])
	if d > 0 {
		s.DirectServices = split[:d:d]
	}
	if j < len(split) {
		s.InjectedServices = split[j:]
	}
}

// --- First-party script -------------------------------------------------

// fpScript renders a site's own /assets/app.js. First-party scripts set
// preference cookies (short values), a client id (a long identifier), and
// optionally perform the cross-domain actions that survive CookieGuard's
// owner-full-access policy (the Figure 5 residual).
func fpScript(s *Site) string {
	var buf [9]string
	p := append(buf[:0], "// first-party app.js for ", s.Domain, "\n")
	if s.Flags.FPCookies {
		p = append(p, `let pref = get_cookie("site_theme");
if (pref == null) { set_cookie("site_theme", "light", {"max_age": 31536000}); }
let cid = get_cookie("fp_client_id");
if (cid == null) { set_cookie("fp_client_id", rand_id(16) + "." + str(now_ms()), {"max_age": 63072000}); }
set_cookie("cart_items", "0", {"path": "/"});
set_cookie("visit_count", "1", {"max_age": 2592000});
set_cookie("ab_bucket", "b", {"max_age": 604800});
`)
	}
	if s.Flags.FPExfil {
		// Server-side-tagging pattern (§5.7): the site's own script
		// forwards third-party identifiers to an analytics relay.
		p = append(p, `let xga = get_cookie("_ga");
if (xga != null) { send("https://relay.fp-analytics.example/ingest", {"ga": xga, "u": page_url()}); }
let xfbp = get_cookie("_fbp");
if (xfbp != null) { send("https://relay.fp-analytics.example/ingest", {"fbp": xfbp, "u": page_url()}); }
`)
	}
	if s.Flags.FPOverwrite {
		p = append(p, `let xgcl = get_cookie("_gcl_au");
if (xgcl != null) { set_cookie("_gcl_au", "1.1." + rand_id(10) + "." + str(now_ms()), {"max_age": 7776000}); }
`)
	}
	if s.Flags.FPDelete {
		p = append(p, `let xuet = get_cookie("_uetvid");
if (xuet != null) { delete_cookie("_uetvid"); }
`)
	}
	if s.Flags.CDNSplit {
		// The widget's state cookie, consumed by the sibling-domain
		// chat script (the facebook.com/fbcdn.net shape).
		p = append(p, `set_cookie("widget_state", "boot." + rand_id(12), {"max_age": 3600});
`)
	}
	p = append(p, `dom_set_text("status", "ready");
`)
	return strings.Join(p, "")
}

// cdnChatScript is the CDN-split widget: served from the site's sibling
// domain, it must read the first-party widget_state cookie to boot. Under
// strict CookieGuard this is a cross-domain read and fails (major
// functionality breakage); the entity whitelist repairs it.
func cdnChatScript(s *Site) string {
	return "// chat widget for " + s.Domain + " served from " + cdnDomain(s) + `
let st = get_cookie("widget_state");
if (st != null) {
  dom_insert("body", "div", {"id": "chat-ready", "class": "chat"});
  set_cookie("chat_ready", "1", {"max_age": 3600});
}
`
}

// containerScript renders the per-site tag-manager container: it injects
// the site's indirect services and, mirroring how GTM containers embed
// vendor tags, performs the container-level cookie reads and sends that
// make googletagmanager.com the top exfiltrator of Figure 2. Every line
// but the header is pre-rendered and the builder is sized up front, so
// the script is one allocation.
func (r *renderer) containerScript(s *Site) string {
	const header, headerFor = "// ", " container for "
	const inject, injectEnd = "inject(", ");\n"
	var tail string
	switch {
	case !s.Flags.Exfil:
	case s.Rank%3 == 0:
		tail = r.exfilTailFP
	default:
		tail = r.exfilTail
	}
	n := len(header) + len(r.tm.Name) + len(headerFor) + len(s.Domain) + 1 + len(tail)
	for _, svc := range s.InjectedServices {
		n += len(inject) + len(svc.quoted) + len(injectEnd)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(header)
	b.WriteString(r.tm.Name)
	b.WriteString(headerFor)
	b.WriteString(s.Domain)
	b.WriteByte('\n')
	for _, svc := range s.InjectedServices {
		b.WriteString(inject)
		b.WriteString(svc.quoted)
		b.WriteString(injectEnd)
	}
	b.WriteString(tail)
	return b.String()
}

// containerExfilTail renders the container's vendor-tag block: shared
// vendor-tag targets plus, with fpClientID, the site-specific identifier
// developers push into the data layer (fp_client_id, on a third of
// sites): the pattern that makes googletagmanager.com the top
// exfiltrator by unique cookies in Figure 2. It is the same for every
// site, so each web renders both variants once.
func containerExfilTail(tm *Service, fpClientID bool) string {
	var b strings.Builder
	b.WriteString(`let tags = [];
`)
	targets := append([]string{}, tm.Targets...)
	if fpClientID {
		targets = append(targets, "fp_client_id")
	}
	for _, tgt := range targets {
		id := safeIdent(tgt)
		fmt.Fprintf(&b, "let c_%s = get_cookie(%q);\n", id, tgt)
		fmt.Fprintf(&b, "if (c_%s != null && len(c_%s) >= 8) { push(tags, %q + \":\" + c_%s); }\n", id, id, tgt, id)
	}
	fmt.Fprintf(&b, "if (len(tags) > 0) {\n")
	for _, p := range tm.Partners {
		fmt.Fprintf(&b, "  send(%q, {\"t\": join(tags, \"|\"), \"u\": page_url()});\n",
			"https://"+p+"/container")
	}
	fmt.Fprintf(&b, "}\n")
	return b.String()
}

// inlineSnippet is the small inline script some pages carry; inline code
// cannot be attributed to a domain (strict CookieGuard denies it).
const inlineSnippet = `set_cookie("inline_pref", "seen", {"max_age": 86400});
let ic = get_cookie("inline_pref");
`

// --- SSO scripts ---------------------------------------------------------

// idpLoginScript sets the provider's SSO token (ghost-written first-party
// cookie) on the relying site. In "single" mode it also confirms the
// session itself.
func idpLoginScript(pair IdPPair, single bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s login widget\n", pair.Name)
	fmt.Fprintf(&b, `let tok = get_cookie("sso_token_%s");
if (tok == null) { set_cookie("sso_token_%s", rand_id(24) + "." + str(now_ms()), {"max_age": 3600}); }
`, pair.Name, pair.Name)
	if single {
		fmt.Fprintf(&b, `let t2 = get_cookie("sso_token_%s");
if (t2 != null) {
  set_cookie("session_ok", "1", {"max_age": 3600});
  dom_insert("body", "div", {"id": "sso-ok"});
}
`, pair.Name)
	}
	return b.String()
}

// idpSessionScript is the second provider domain completing the login: it
// must read the token the login domain set — a cross-domain interaction
// that strict CookieGuard blocks (the 11% SSO breakage of Table 3).
func idpSessionScript(pair IdPPair) string {
	return fmt.Sprintf(`// %s session confirmation
let tok = get_cookie("sso_token_%s");
if (tok != null) {
  set_cookie("session_ok", "1", {"max_age": 3600});
  dom_insert("body", "div", {"id": "sso-ok"});
}
`, pair.Name, pair.Name)
}

// refresherScript keeps the session alive across reloads; when blocked it
// produces the "signed in until refresh" minor breakage (cnn.com case).
const refresherScript = `// session keeper
let tok = null;
let all = get_all_cookies();
for (k in all) {
  if (starts_with(k, "sso_token_")) { tok = all[k]; }
}
if (tok != null) { set_cookie("session_fresh", "1", {"max_age": 600}); }
`
