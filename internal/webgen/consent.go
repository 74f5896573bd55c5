package webgen

import (
	"strconv"
	"strings"

	"cookieguard/internal/stats"
)

// ConsentTracker is one entry of a site's consent manifest: a named
// tracker the site loads only after consent, with its category and
// script URL — the shape of real consent-manager service manifests
// (named trackers with category + async script URL, loaded async).
type ConsentTracker struct {
	Name      string
	Category  string // "analytics", "advertising", "functional"
	ScriptURL string
	Async     bool // injected via a deferred task instead of synchronously

	quoted string // strconv.Quote(ScriptURL), as the loader embeds it
}

// ConsentCookie is the consent-state cookie the CMP loader gates on:
// "granted" after accept-all, "denied" after reject-all, unset after
// dismiss (or before any banner interaction).
const ConsentCookie = "cg_consent"

// consentCategory maps a service kind onto its manifest category.
func consentCategory(k ServiceKind) string {
	switch k {
	case KindAnalytics, KindPerfSDK:
		return "analytics"
	case KindWidget, KindCDNLib:
		return "functional"
	default:
		return "advertising"
	}
}

// consentGated reports whether a directly included service loads only
// after consent under CMP generation. Consent platforms themselves stay
// ungated (they are the compliance layer), as do functional widgets and
// libraries; the CNAME-cloaked tracker also stays ungated — cloaking
// evades consent tooling exactly as it evades filter lists (§8).
func consentGated(svc *Service) bool {
	switch svc.Kind {
	case KindConsent, KindDeleter:
		return false
	}
	return svc.Kind.Tracking()
}

// planConsent moves the site's gated direct trackers (and its
// tag-manager container, when present) out of the HTML's <script src>
// tags into a seeded consent manifest; the CMP loader script injects
// them only once the consent cookie reads "granted". Async flags are
// drawn from the site's own rng, so CMP generation never perturbs any
// other site — and with Config.CMP false no draw happens at all, which
// keeps the CMP-free web byte-identical.
func planConsent(s *Site, rng *stats.Rand, tm *Service) {
	var direct []*Service
	for _, svc := range s.DirectServices {
		if !consentGated(svc) {
			direct = append(direct, svc)
			continue
		}
		s.Consent = append(s.Consent, ConsentTracker{
			Name:      svc.Name,
			Category:  consentCategory(svc.Kind),
			ScriptURL: svc.URL(),
			Async:     rng.Bool(0.5),
			quoted:    svc.quoted,
		})
	}
	s.DirectServices = direct
	if u := containerURL(tm, s); u != "" {
		s.ContainerGated = true
		s.Consent = append(s.Consent, ConsentTracker{
			Name:      "googletagmanager-container",
			Category:  "advertising",
			ScriptURL: u,
			Async:     rng.Bool(0.5),
			quoted:    strconv.Quote(u),
		})
	}
}

// cmpBannerHTML is the consent banner markup shared by every CMP site:
// hidden until the loader reveals it, with the three action targets the
// crawl personas click (accept-all, reject-all, dismiss).
const cmpBannerHTML = `<div id="cmp-banner" style="display:none">We value your privacy <span id="cmp-accept">Accept all</span> <span id="cmp-reject">Reject all</span> <span id="cmp-dismiss">x</span></div>`

// cmpLoaderScript renders the site's first-party consent loader
// (/assets/cmp.js): it gates the manifest's trackers on the consent
// cookie — "granted" injects them all (async entries via deferred
// tasks), "denied" removes the banner without loading anything, and an
// unset cookie reveals the banner and wires the accept/reject/dismiss
// click handlers. Accept sets the consent cookie and injects; reject
// sets the denial cookie; dismiss hides the banner and leaves the
// cookie unset, so a revisit would ask again.
func cmpLoaderScript(s *Site) string {
	var buf [96]string
	p := append(buf[:0], "// consent loader for ", s.Domain, ": ", strconv.Itoa(len(s.Consent)), " gated trackers\n")
	injectAll := func(indent string) {
		for _, t := range s.Consent {
			if t.Async {
				p = append(p, indent, "defer_run(fn() { inject(", t.quoted, "); });\n")
			} else {
				p = append(p, indent, "inject(", t.quoted, ");\n")
			}
		}
	}
	p = append(p, "let consent = get_cookie(\""+ConsentCookie+"\");\n"+
		`if (consent == "granted") {`+"\n")
	injectAll("  ")
	p = append(p, "  dom_remove(\"cmp-banner\");\n}\n"+
		`if (consent == "denied") {
  dom_remove("cmp-banner");
}
`+
		"if (consent == null) {\n"+
		"  dom_set_style(\"cmp-banner\", \"display\", \"block\");\n"+
		"  on_click_id(\"cmp-accept\", fn() {\n"+
		"    set_cookie(\""+ConsentCookie+"\", \"granted\", {\"max_age\": 31536000});\n")
	injectAll("    ")
	p = append(p, "    dom_remove(\"cmp-banner\");\n  });\n"+
		"  on_click_id(\"cmp-reject\", fn() {\n"+
		"    set_cookie(\""+ConsentCookie+"\", \"denied\", {\"max_age\": 31536000});\n"+
		"    dom_remove(\"cmp-banner\");\n  });\n"+
		"  on_click_id(\"cmp-dismiss\", fn() {\n"+
		"    dom_set_style(\"cmp-banner\", \"display\", \"none\");\n  });\n"+
		"}\n")
	return strings.Join(p, "")
}
