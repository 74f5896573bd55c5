package webgen

import (
	"fmt"
	"strconv"
	"strings"

	"cookieguard/internal/stats"
)

// ServiceKind classifies a third-party script service's behaviour.
type ServiceKind int

// Service kinds.
const (
	KindAnalytics  ServiceKind = iota // sets own cookies, beacons home
	KindTagManager                    // sets cookies, injects per-site children
	KindPixel                         // social/conversion pixel
	KindRTB                           // reads known tracker cookies, exfiltrates to partners
	KindBulkRTB                       // reads the whole jar, exfiltrates every identifier
	KindIDSync                        // parses specific foreign cookies, syncs to partners
	KindConsent                       // consent platform: reads, sends consent signal
	KindDeleter                       // consent platform variant that deletes tracking cookies
	KindOverwriter                    // overwrites foreign cookies
	KindWidget                        // functional widget (chat/search), own cookie only
	KindCDNLib                        // static library, no cookie access
	KindPerfSDK                       // CookieStore setter (Shopify/Admiral shape)
	KindCSReader                      // CookieStore cross-domain exfiltrator
	KindDOMMod                        // modifies DOM elements it does not own
	KindAdRender                      // renders the ad slot if a foreign bid cookie is readable
)

func (k ServiceKind) String() string {
	names := []string{"analytics", "tagmanager", "pixel", "rtb", "bulkrtb",
		"idsync", "consent", "deleter", "overwriter", "widget", "cdnlib",
		"perfsdk", "csreader", "dommod", "adrender"}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// Tracking reports whether the kind is advertising/tracking (the ground
// truth the filter lists approximate).
func (k ServiceKind) Tracking() bool {
	switch k {
	case KindWidget, KindCDNLib, KindPerfSDK:
		return false
	default:
		return true
	}
}

// Service is one third-party script service: a domain hosting one script
// with fixed behaviour (like the real gtm.js or fbevents.js, its content
// does not vary across including sites).
type Service struct {
	Name     string
	Domain   string // eTLD+1 the script is served from
	Host     string // full host
	Path     string // script path
	Kind     ServiceKind
	Cookies  []CookieSpec
	Targets  []string // foreign cookie names to read/overwrite/delete
	Partners []string // exfiltration destination hosts
	// Source is the generated SiteScript body.
	Source string

	url    string // "https://" + Host + Path, set when buildServices adds it
	quoted string // strconv.Quote(url), the form every generated page and script embeds
}

// URL returns the script's absolute URL.
func (s *Service) URL() string { return s.url }

// CookieSpec describes one cookie a service sets.
type CookieSpec struct {
	Name string
	// ValueExpr is a SiteScript expression producing the value.
	ValueExpr string
	// MaxAge in seconds (0 = session).
	MaxAge int64
	// Store selects the CookieStore API instead of document.cookie.
	Store bool
}

// identValue returns a value expression with ≥8-char identifier segments
// (detectable by the exfiltration pipeline).
func identValue(prefix string, idLen int) string {
	return fmt.Sprintf(`"%s" + rand_id(%d) + "." + str(now_ms())`, prefix, idLen)
}

// buildServices constructs the named services (mirroring the actors in
// the paper's tables) plus the synthetic long tail.
func buildServices(cfg Config, rng *stats.Rand) []*Service {
	var out []*Service
	add := func(s *Service) *Service {
		if s.Host == "" {
			s.Host = s.Domain
		}
		s.url = "https://" + s.Host + s.Path
		s.quoted = strconv.Quote(s.url)
		out = append(out, s)
		return s
	}

	// --- Named analytics / pixels (Table 2 cookie owners) ---
	add(&Service{
		Name: "google-analytics", Domain: "google-analytics.com",
		Host: "www.google-analytics.com", Path: "/analytics.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "_ga", ValueExpr: `"GA1.2." + rand_id(9) + "." + str(now_ms())`, MaxAge: 63072000},
			{Name: "_gid", ValueExpr: `"GA1.2." + rand_id(9) + "." + str(now_ms())`, MaxAge: 86400},
			{Name: "__utma", ValueExpr: identValue("173272373.", 10), MaxAge: 63072000},
			{Name: "__utmb", ValueExpr: identValue("173272373.", 8), MaxAge: 1800},
			{Name: "__utmz", ValueExpr: identValue("173272373.", 8), MaxAge: 15768000},
		},
		Partners: []string{"www.google-analytics.com"},
	})
	add(&Service{
		Name: "facebook-pixel", Domain: "facebook.net",
		Host: "connect.facebook.net", Path: "/en_US/fbevents.js",
		Kind: KindPixel,
		Cookies: []CookieSpec{
			{Name: "_fbp", ValueExpr: `"fb.0." + str(now_ms()) + "." + rand_id(18)`, MaxAge: 7776000},
		},
		Partners: []string{"www.facebook.com"},
	})
	add(&Service{
		Name: "bing-uet", Domain: "bing.com",
		Host: "bat.bing.com", Path: "/bat.js",
		Kind: KindPixel,
		Cookies: []CookieSpec{
			{Name: "_uetsid", ValueExpr: identValue("", 16), MaxAge: 86400},
			{Name: "_uetvid", ValueExpr: identValue("", 16), MaxAge: 33696000},
		},
		Partners: []string{"bat.bing.com"},
	})
	add(&Service{
		Name: "yandex-metrika", Domain: "yandex.ru",
		Host: "mc.yandex.ru", Path: "/metrika/tag.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "_ym_uid", ValueExpr: identValue("", 12), MaxAge: 31536000},
			{Name: "_ym_d", ValueExpr: `str(now_ms())`, MaxAge: 31536000},
		},
		Partners: []string{"mc.yandex.ru"},
	})
	add(&Service{
		Name: "segment", Domain: "segment.com",
		Host: "cdn.segment.com", Path: "/analytics.js/v1/analytics.min.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "ajs_anonymous_id", ValueExpr: identValue("", 16), MaxAge: 31536000},
			{Name: "ajs_user_id", ValueExpr: identValue("u-", 12), MaxAge: 31536000},
		},
		Partners: []string{"api.segment.io"},
	})
	add(&Service{
		Name: "snap-pixel", Domain: "sc-static.net",
		Host: "sc-static.net", Path: "/scevent.min.js",
		Kind: KindPixel,
		Cookies: []CookieSpec{
			{Name: "_scid", ValueExpr: identValue("", 14), MaxAge: 33696000},
			{Name: "_screload", ValueExpr: identValue("", 10), MaxAge: 3600},
		},
		Partners: []string{"tr.snapchat.com"},
	})
	add(&Service{
		Name: "tiktok-pixel", Domain: "tiktokcdn.com",
		Host: "analytics.tiktokcdn.com", Path: "/i18n/pixel/events.js",
		Kind: KindPixel,
		Cookies: []CookieSpec{
			{Name: "_ttp", ValueExpr: identValue("", 16), MaxAge: 33696000},
		},
		Partners: []string{"analytics.tiktokcdn.com"},
	})
	add(&Service{
		Name: "hotjar", Domain: "hotjar.com",
		Host: "static.hotjar.com", Path: "/c/hotjar.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "_hjSessionUser", ValueExpr: identValue("", 14), MaxAge: 31536000},
		},
		Partners: []string{"in.hotjar.com"},
	})
	add(&Service{
		Name: "marketo", Domain: "marketo.net",
		Host: "munchkin.marketo.net", Path: "/munchkin.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "_mkto_trk", ValueExpr: `"id:000-AAA-000&token:_mch-" + page_url() + "-" + str(now_ms()) + "-" + rand_id(10)`, MaxAge: 63072000},
		},
		Partners: []string{"000-aaa-000.mktoresp.com"},
	})
	add(&Service{
		Name: "statcounter", Domain: "statcounter.com",
		Host: "www.statcounter.com", Path: "/counter/counter.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "sc_is_visitor_unique", ValueExpr: identValue("", 12), MaxAge: 63072000},
		},
		Partners: []string{"c.statcounter.com"},
	})
	add(&Service{
		Name: "gaconnector", Domain: "gaconnector.com",
		Host: "cdn.gaconnector.com", Path: "/gaconnector.js",
		Kind:    KindIDSync,
		Targets: []string{"_ga"},
		Cookies: []CookieSpec{
			{Name: "gaconnector_GA_Client_ID", ValueExpr: identValue("", 12), MaxAge: 31536000},
			{Name: "gaconnector_GA_Session_ID", ValueExpr: identValue("", 12), MaxAge: 1800},
		},
		Partners: []string{"track.gaconnector.com", "api.hubspot.com"},
	})
	add(&Service{
		Name: "yahoo-japan", Domain: "yimg.jp",
		Host: "s.yimg.jp", Path: "/images/listing/tool/cv/ytag.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "_yjsu_yjad", ValueExpr: identValue("", 14), MaxAge: 31536000},
		},
		Partners: []string{"b90.yahoo.co.jp"},
	})
	add(&Service{
		Name: "lotame", Domain: "crwdcntrl.net",
		Host: "tags.crwdcntrl.net", Path: "/lt/c/lt.min.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_fbp", "_gcl_au"},
		Cookies: []CookieSpec{
			{Name: "lotame_domain_check", ValueExpr: identValue("", 10), MaxAge: 86400},
		},
		Partners: []string{"bcp.crwdcntrl.net", "sync.amazon-adsystem.example"},
	})
	add(&Service{
		Name: "ketch", Domain: "ketchjs.com",
		Host: "global.ketchjs.com", Path: "/web/v2/config/boot.js",
		Kind: KindConsent,
		Cookies: []CookieSpec{
			// The IAB US-Privacy string plus the CMP's consent id; the
			// id segment is what downstream ad tech forwards (§5.4
			// flags us_privacy as an intended consent signal).
			{Name: "us_privacy", ValueExpr: `"1YNN." + rand_id(12)`, MaxAge: 31536000},
		},
		Partners: []string{"consent.ketchjs.com"},
	})
	add(&Service{
		Name: "cxense", Domain: "cxense.com",
		Host: "cdn.cxense.com", Path: "/cx.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "cookie_test", ValueExpr: `"1"`, MaxAge: 300},
			{Name: "_cookie_test", ValueExpr: `"1"`, MaxAge: 300},
		},
		Partners: []string{"scomcluster.cxense.com"},
	})

	// --- Tag managers (§5.6 indirection) ---
	add(&Service{
		Name: "googletagmanager", Domain: "googletagmanager.com",
		Host: "www.googletagmanager.com", Path: "/gtm.js",
		Kind: KindTagManager,
		Cookies: []CookieSpec{
			{Name: "_ga", ValueExpr: `"GA1.1." + rand_id(9) + "." + str(now_ms())`, MaxAge: 63072000},
			{Name: "_gcl_au", ValueExpr: `"1.1." + rand_id(10) + "." + str(now_ms())`, MaxAge: 7776000},
		},
		Targets:  []string{"_ga", "_gid", "_gcl_au", "_fbp", "OptanonConsent"},
		Partners: []string{"www.google-analytics.com", "stats.g.doubleclick.net", "track.hubspot.com"},
	})
	add(&Service{
		Name: "adobe-launch", Domain: "adobedtm.com",
		Host: "assets.adobedtm.com", Path: "/launch.min.js",
		Kind: KindTagManager,
		Cookies: []CookieSpec{
			{Name: "AMCV_ID", ValueExpr: identValue("", 16), MaxAge: 63072000},
		},
		Targets:  []string{"_ga", "utag_main"},
		Partners: []string{"dpm.demdex.net"},
	})
	add(&Service{
		Name: "tealium", Domain: "tiqcdn.com",
		Host: "tags.tiqcdn.com", Path: "/utag/main/prod/utag.js",
		Kind: KindOverwriter,
		Cookies: []CookieSpec{
			{Name: "utag_main", ValueExpr: identValue("v_id:", 16), MaxAge: 31536000},
		},
		Targets:  []string{"_uetsid", "_uetvid"},
		Partners: []string{"collect.tealiumiq.example"},
	})

	// --- RTB / exchanges (Fig 2 exfiltrators) ---
	add(&Service{
		Name: "doubleclick", Domain: "doubleclick.net",
		Host: "stats.g.doubleclick.net", Path: "/dc.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_gid", "_gcl_au", "__utma", "_fbp", "us_privacy"},
		Cookies: []CookieSpec{
			{Name: "IDE", ValueExpr: identValue("", 20), MaxAge: 33696000},
		},
		Partners: []string{"cm.g.doubleclick.net", "sync.amazon-adsystem.example", "ads.pubmatic.example"},
	})
	add(&Service{
		Name: "googlesyndication", Domain: "googlesyndication.com",
		Host: "pagead2.googlesyndication.com", Path: "/pagead/js/adsbygoogle.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_gcl_au", "__utmb", "__utmz", "us_privacy"},
		Cookies: []CookieSpec{
			{Name: "__gads", ValueExpr: identValue("ID=", 16), MaxAge: 33696000},
		},
		Partners: []string{"securepubads.g.doubleclick.net", "csi.gstatic.example"},
	})
	add(&Service{
		Name: "amazon-ads", Domain: "amazon-adsystem.com",
		Host: "c.amazon-adsystem.com", Path: "/aax2/apstag.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_fbp", "i", "pd", "us_privacy"},
		Cookies: []CookieSpec{
			{Name: "ad-id", ValueExpr: identValue("A", 18), MaxAge: 19272000},
		},
		Partners: []string{"aax.amazon-adsystem.com", "s.amazon-adsystem.com"},
	})
	add(&Service{
		Name: "openx", Domain: "openx.net",
		Host: "us-u.openx.net", Path: "/w/1.0/jstag.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_fbp", "lotame_domain_check"},
		Cookies: []CookieSpec{
			{Name: "i", ValueExpr: identValue("", 16), MaxAge: 31536000},
			{Name: "pd", ValueExpr: identValue("", 14), MaxAge: 31536000},
		},
		Partners: []string{"rtb.openx.example", "ads.yahoo.example", "liveintent-sync.liadm.com"},
	})
	add(&Service{
		Name: "pubmatic", Domain: "pubmatic.com",
		Host: "ads.pubmatic.com", Path: "/AdServer/js/pwt.js",
		Kind:    KindOverwriter,
		Targets: []string{"cto_bundle"}, // deliberate competition overwrite (§5.5)
		Cookies: []CookieSpec{
			{Name: "SPugT", ValueExpr: identValue("", 14), MaxAge: 2592000},
			{Name: "PugT", ValueExpr: identValue("", 12), MaxAge: 2592000},
		},
		Partners: []string{"image8.pubmatic.com", "simage2.pubmatic.com"},
	})
	add(&Service{
		// Criteo's loader only maintains its own bundle here; the
		// _fbp→Criteo identifier sync of the §5.4 case study is carried
		// by the Osano consent script below, as in the paper.
		Name: "criteo", Domain: "criteo.net",
		Host: "dynamic.criteo.net", Path: "/js/ld/ld.js",
		Kind: KindAnalytics,
		Cookies: []CookieSpec{
			{Name: "cto_bundle", ValueExpr: identValue("", 48), MaxAge: 33696000},
		},
		Partners: []string{"sslwidget.criteo.com", "gum.criteo.com"},
	})
	add(&Service{
		Name: "linkedin-insight", Domain: "licdn.com",
		Host: "snap.licdn.com", Path: "/li.lms-analytics/insight.min.js",
		Kind:    KindIDSync,
		Targets: []string{"_ga", "_gcl_au"},
		Cookies: []CookieSpec{
			{Name: "li_fat_id", ValueExpr: identValue("", 16), MaxAge: 2592000},
		},
		Partners: []string{"px.ads.linkedin.com"},
	})
	add(&Service{
		Name: "taboola", Domain: "taboola.com",
		Host: "cdn.taboola.com", Path: "/libtrc/loader.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "SPugT", "_yjsu_yjad"},
		Cookies: []CookieSpec{
			{Name: "t_gid", ValueExpr: identValue("", 14), MaxAge: 31536000},
		},
		Partners: []string{"trc.taboola.com", "beacon.taboola.example"},
	})
	add(&Service{
		Name: "liveintent", Domain: "liadm.com",
		Host: "b-code.liadm.com", Path: "/lc2.js",
		Kind: KindBulkRTB,
		Cookies: []CookieSpec{
			{Name: "_li_dcdm_c", ValueExpr: identValue("", 12), MaxAge: 2592000},
		},
		Partners: []string{"rp.liadm.com", "sync.liadm.example"},
	})
	add(&Service{
		Name: "pinterest-tag", Domain: "pinimg.com",
		Host: "s.pinimg.com", Path: "/ct/core.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_gid", "_gcl_au"},
		Cookies: []CookieSpec{
			{Name: "_pin_unauth", ValueExpr: identValue("", 22), MaxAge: 31536000},
		},
		Partners: []string{"ct.pinterest.com"},
	})
	add(&Service{
		Name: "clarity", Domain: "clarity.ms",
		Host: "www.clarity.ms", Path: "/tag/uet.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_gid", "_uetsid", "_uetvid", "_mkto_trk"},
		Cookies: []CookieSpec{
			{Name: "_clck", ValueExpr: identValue("", 12), MaxAge: 31536000},
		},
		Partners: []string{"c.clarity.ms", "c.bing.com"},
	})
	add(&Service{
		Name: "hubspot", Domain: "hs-scripts.com",
		Host: "js.hs-scripts.com", Path: "/tracking.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "_gcl_au", "__utma", "ajs_anonymous_id", "gaconnector_GA_Client_ID", "gaconnector_GA_Session_ID"},
		Cookies: []CookieSpec{
			{Name: "hubspotutk", ValueExpr: identValue("", 16), MaxAge: 15768000},
		},
		Partners: []string{"track.hubspot.com", "forms.hsforms.net", "api.usemessages.com"},
	})
	add(&Service{
		Name: "mountain", Domain: "mountain.com",
		Host: "dx.mountain.com", Path: "/spx.js",
		Kind: KindBulkRTB,
		Cookies: []CookieSpec{
			{Name: "mtn_id", ValueExpr: identValue("", 14), MaxAge: 31536000},
		},
		Partners: []string{"px.mountain.com"},
	})
	add(&Service{
		Name: "scriptac", Domain: "script.ac",
		Host: "cdn.script.ac", Path: "/tag.js",
		Kind:    KindRTB,
		Targets: []string{"PugT", "_ga", "cto_bundle"},
		Cookies: []CookieSpec{
			{Name: "sac_id", ValueExpr: identValue("", 12), MaxAge: 2592000},
		},
		Partners: []string{"sync.script.ac"},
	})
	add(&Service{
		Name: "pubnetwork", Domain: "pub.network",
		Host: "a.pub.network", Path: "/core.js",
		Kind:    KindRTB,
		Targets: []string{"_ga", "__gads", "IDE"},
		Cookies: []CookieSpec{
			{Name: "fpn_uid", ValueExpr: identValue("", 14), MaxAge: 31536000},
		},
		Partners: []string{"sync.pub.network", "ads.yieldmo.example"},
	})

	// --- Consent managers (Table 5 deleters) ---
	add(&Service{
		Name: "onetrust", Domain: "cookielaw.org",
		Host: "cdn.cookielaw.org", Path: "/scripttemplates/otSDKStub.js",
		Kind: KindConsent,
		Cookies: []CookieSpec{
			{Name: "OptanonConsent", ValueExpr: `"isGpcEnabled=0&datestamp=" + str(now_ms()) + "&version=202401.1.0&browserGpcFlag=0&consentId=" + rand_id(16)`, MaxAge: 31536000},
		},
		Partners: []string{"geolocation.onetrust.com"},
	})
	add(&Service{
		Name: "cookieyes", Domain: "cdn-cookieyes.com",
		Host: "cdn-cookieyes.com", Path: "/client_data/banner.js",
		Kind:    KindDeleter,
		Targets: []string{"_fbp", "_uetvid", "_uetsid", "_ga", "_gid", "_gcl_au"},
		Cookies: []CookieSpec{
			{Name: "cookieyes-consent", ValueExpr: `"consentid:" + rand_id(16) + ",consent:no,action:yes"`, MaxAge: 31536000},
		},
		Partners: []string{"log.cookieyes.com"},
	})
	add(&Service{
		Name: "cookie-script", Domain: "cookie-script.com",
		Host: "cdn.cookie-script.com", Path: "/s/cs.js",
		Kind:    KindDeleter,
		Targets: []string{"_uetvid", "_uetsid", "_ga", "_fbp", "cookie_test", "_cookie_test"},
		Cookies: []CookieSpec{
			{Name: "CookieScriptConsent", ValueExpr: `"{\"action\":\"reject\",\"key\":\"" + rand_id(12) + "\"}"`, MaxAge: 2592000},
		},
		Partners: []string{"report.cookie-script.com"},
	})
	add(&Service{
		Name: "osano", Domain: "osano.com",
		Host: "cmp.osano.com", Path: "/osano.js",
		Kind:    KindIDSync, // the §5.4 case study: consent tool syncing _fbp → Criteo
		Targets: []string{"_fbp"},
		Cookies: []CookieSpec{
			{Name: "osano_consentmanager", ValueExpr: identValue("", 20), MaxAge: 31536000},
		},
		Partners: []string{"sslwidget.criteo.com"},
	})
	add(&Service{
		Name: "cookiebot", Domain: "cookiebot.com",
		Host: "consent.cookiebot.com", Path: "/uc.js",
		Kind:    KindDeleter,
		Targets: []string{"_fbp", "_gcl_au", "ajs_user_id", "_screload"},
		Cookies: []CookieSpec{
			{Name: "CookieConsent", ValueExpr: identValue("", 12), MaxAge: 31536000},
		},
		Partners: []string{"consentcdn.cookiebot.com"},
	})

	// --- Overwriters (Table 5 / Fig 8a) ---
	add(&Service{
		Name: "sentry", Domain: "sentry-cdn.com",
		Host: "browser.sentry-cdn.com", Path: "/bundle.min.js",
		Kind:    KindOverwriter,
		Targets: []string{"_fbp", "ajs_anonymous_id"},
		Cookies: []CookieSpec{
			{Name: "sentry_sid", ValueExpr: identValue("", 16), MaxAge: 3600},
		},
		Partners: []string{"o0.ingest.sentry.io"},
	})
	add(&Service{
		Name: "vwo", Domain: "visualwebsiteoptimizer.com",
		Host: "dev.visualwebsiteoptimizer.com", Path: "/lib/va.js",
		Kind:    KindOverwriter,
		Targets: []string{"_ga"},
		Cookies: []CookieSpec{
			{Name: "_vwo_uuid", ValueExpr: identValue("", 16), MaxAge: 31536000},
		},
		Partners: []string{"dev.visualwebsiteoptimizer.com"},
	})
	add(&Service{
		Name: "ezoic", Domain: "ezodn.com",
		Host: "go.ezodn.com", Path: "/hb/dall.js",
		Kind:    KindOverwriter,
		Targets: []string{"cookie_test", "_cookie_test"},
		Cookies: []CookieSpec{
			{Name: "ezoictest", ValueExpr: `"stable"`, MaxAge: 600},
		},
		Partners: []string{"g.ezoic.net"},
	})

	// --- CookieStore users (§5.2) ---
	add(&Service{
		Name: "shopify-perf", Domain: "shopifycloud.com",
		Host: "cdn.shopifycloud.com", Path: "/shopify-perf-kit/shopify-perf-kit-1.6.1.min.js",
		Kind: KindPerfSDK,
		Cookies: []CookieSpec{
			{Name: "keep_alive", ValueExpr: identValue("", 12), MaxAge: 1800, Store: true},
		},
		Partners: []string{"monorail-edge.shopifysvc.example"},
	})
	add(&Service{
		Name: "admiral", Domain: "getadmiral.com",
		Host: "cdn.getadmiral.com", Path: "/sdk.js",
		Kind: KindPerfSDK,
		Cookies: []CookieSpec{
			{Name: "_awl", ValueExpr: `"2." + str(now_ms()) + "." + rand_id(12)`, MaxAge: 86400, Store: true},
		},
		Partners: []string{"px.getadmiral.com"},
	})
	add(&Service{
		Name: "cs-reader", Domain: "cs-metrics.example",
		Host: "cdn.cs-metrics.example", Path: "/csr.js",
		Kind:     KindCSReader,
		Targets:  []string{"keep_alive", "_awl"},
		Partners: []string{"collect.cs-metrics.example"},
	})

	// Long-tail CookieStore SDKs: they diversify the cookieStore pair
	// universe so the exfiltrated share lands near the paper's 16.3%
	// (only keep_alive/_awl are targeted by the cs-reader).
	for i := 0; i < 6; i++ {
		d := fmt.Sprintf("cs-sdk-%02d.example", i)
		add(&Service{
			Name:   fmt.Sprintf("cs-sdk-%02d", i),
			Domain: d, Host: "cdn." + d, Path: "/sdk.js",
			Kind: KindPerfSDK,
			Cookies: []CookieSpec{
				{Name: fmt.Sprintf("cs%02d_state", i), ValueExpr: identValue("", 10), MaxAge: 3600, Store: true},
			},
			Partners: []string{"collect." + d},
		})
	}

	// --- Functional widgets ---
	add(&Service{
		Name: "intercom", Domain: "intercomcdn.com",
		Host: "js.intercomcdn.com", Path: "/shim.latest.js",
		Kind: KindWidget,
		Cookies: []CookieSpec{
			{Name: "intercom-id", ValueExpr: identValue("", 16), MaxAge: 23328000},
		},
	})
	add(&Service{
		Name: "zendesk", Domain: "zdassets.com",
		Host: "static.zdassets.com", Path: "/ekr/snippet.js",
		Kind: KindWidget,
		Cookies: []CookieSpec{
			{Name: "__zlcmid", ValueExpr: identValue("", 14), MaxAge: 31536000},
		},
	})
	add(&Service{
		Name: "stripe-js", Domain: "stripe.com",
		Host: "js.stripe.com", Path: "/v3/stripe.js",
		Kind: KindWidget,
		Cookies: []CookieSpec{
			{Name: "__stripe_mid", ValueExpr: identValue("", 16), MaxAge: 31536000},
		},
	})
	add(&Service{
		Name: "jquery-cdn", Domain: "cdnjslib.example",
		Host: "code.cdnjslib.example", Path: "/jquery.min.js",
		Kind: KindCDNLib,
	})
	add(&Service{
		Name: "fontlib", Domain: "fontscdn.example",
		Host: "fonts.fontscdn.example", Path: "/loader.js",
		Kind: KindCDNLib,
	})

	// --- DOM modifier (§8 pilot) ---
	add(&Service{
		Name: "dommod-recs", Domain: "recs-widget.example",
		Host: "cdn.recs-widget.example", Path: "/recs.js",
		Kind: KindDOMMod,
		Cookies: []CookieSpec{
			{Name: "recs_uid", ValueExpr: identValue("", 12), MaxAge: 2592000},
		},
		Partners: []string{"api.recs-widget.example"},
	})

	// --- Ad renderer (breakage minor-functionality case) ---
	add(&Service{
		Name: "ad-render", Domain: "adrender.example",
		Host: "cdn.adrender.example", Path: "/slot.js",
		Kind:     KindAdRender,
		Targets:  []string{"IDE", "__gads", "i"},
		Partners: []string{"bid.adrender.example"},
	})

	// --- Synthetic long tail ---
	for i := 0; i < cfg.NLongTailTrackers; i++ {
		kind := KindAnalytics
		switch i % 5 {
		case 1:
			kind = KindPixel
		case 2:
			kind = KindRTB
		case 4:
			if i%10 == 4 {
				kind = KindBulkRTB
			}
		}
		d := fmt.Sprintf("trk-%04d.example", i)
		svc := &Service{
			Name:   fmt.Sprintf("longtail-trk-%04d", i),
			Domain: d, Host: d, Path: "/t.js",
			Kind: kind,
			Cookies: []CookieSpec{
				{Name: fmt.Sprintf("trk%04d_uid", i), ValueExpr: identValue("", 12), MaxAge: 2592000},
			},
			Partners: []string{fmt.Sprintf("collect.trk-%04d.example", i)},
		}
		if kind == KindRTB {
			svc.Targets = []string{"_ga", "_fbp", fmt.Sprintf("trk%04d_uid", (i+7)%cfg.NLongTailTrackers)}
		}
		add(svc)
	}
	for i := 0; i < cfg.NLongTailWidgets; i++ {
		d := fmt.Sprintf("widget-%03d.example", i)
		add(&Service{
			Name:   fmt.Sprintf("longtail-widget-%03d", i),
			Domain: d, Host: d, Path: "/w.js",
			Kind: KindWidget,
			Cookies: []CookieSpec{
				{Name: fmt.Sprintf("w%03d_pref", i), ValueExpr: `"on"`, MaxAge: 2592000},
			},
		})
	}

	// Generate sources.
	for _, s := range out {
		s.Source = generateSource(s)
	}
	return out
}

// generateSource renders a service's SiteScript body from its spec.
func generateSource(s *Service) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s (%s) served from %s\n", s.Name, s.Kind, s.Host)

	// 1. Ensure own cookies exist (set-if-missing, like real SDKs).
	for _, c := range s.Cookies {
		if c.Store {
			fmt.Fprintf(&b, "let cur_%s = cookiestore_get(%q);\n", safeIdent(c.Name), c.Name)
			fmt.Fprintf(&b, "if (cur_%s == null) { cookiestore_set(%q, %s, {\"max_age\": %d}); }\n",
				safeIdent(c.Name), c.Name, c.ValueExpr, c.MaxAge)
		} else {
			fmt.Fprintf(&b, "let cur_%s = get_cookie(%q);\n", safeIdent(c.Name), c.Name)
			fmt.Fprintf(&b, "if (cur_%s == null) { set_cookie(%q, %s, {\"max_age\": %d}); }\n",
				safeIdent(c.Name), c.Name, c.ValueExpr, c.MaxAge)
		}
	}

	switch s.Kind {
	case KindAnalytics, KindPixel, KindPerfSDK:
		// Beacon home with own identifiers — but only when this SDK
		// created the cookie itself: a shared cookie name owned by a
		// sibling service (e.g. _ga set by the tag manager) is not
		// re-shipped. This keeps authorized same-domain reporting from
		// registering as cross-domain exfiltration.
		if len(s.Partners) > 0 && len(s.Cookies) > 0 {
			own := s.Cookies[0].Name
			cond := "cur_" + safeIdent(own) + " == null"
			if s.Cookies[0].Store {
				fmt.Fprintf(&b, "let own = cookiestore_get(%q);\n", own)
				fmt.Fprintf(&b, "if (own != null && %s) { send(%q, {\"v\": own[\"value\"], \"u\": page_url()}); }\n",
					cond, "https://"+s.Partners[0]+"/collect")
			} else {
				fmt.Fprintf(&b, "let own = get_cookie(%q);\n", own)
				fmt.Fprintf(&b, "if (own != null && %s) { send(%q, {\"v\": own, \"u\": page_url()}); }\n",
					cond, "https://"+s.Partners[0]+"/collect")
			}
		}

	case KindRTB:
		// Targeted cross-domain exfiltration: read known tracker
		// cookies and ship them to every partner (RTB bid enrichment).
		fmt.Fprintf(&b, "let payload = [];\n")
		for _, tgt := range s.Targets {
			fmt.Fprintf(&b, "let v_%s = get_cookie(%q);\n", safeIdent(tgt), tgt)
			fmt.Fprintf(&b, "if (v_%s != null && len(v_%s) >= 8) { push(payload, %q + \":\" + v_%s); }\n",
				safeIdent(tgt), safeIdent(tgt), tgt, safeIdent(tgt))
		}
		fmt.Fprintf(&b, "if (len(payload) > 0) {\n")
		for _, p := range s.Partners {
			fmt.Fprintf(&b, "  send(%q, {\"b\": join(payload, \"|\"), \"u\": page_url()});\n",
				"https://"+p+"/bid")
		}
		fmt.Fprintf(&b, "}\n")

	case KindBulkRTB:
		// Bulk exfiltration: every identifier-bearing cookie in the jar.
		fmt.Fprintf(&b, `let all = get_all_cookies();
let payload = [];
for (k in all) {
  let v = all[k];
  if (len(v) >= 8) { push(payload, k + ":" + v); }
}
if (len(payload) > 0) {
`)
		for _, p := range s.Partners {
			fmt.Fprintf(&b, "  send(%q, {\"bulk\": join(payload, \"|\"), \"u\": page_url()});\n",
				"https://"+p+"/sync")
		}
		fmt.Fprintf(&b, "}\n")

	case KindIDSync:
		// Parse specific foreign cookies and sync encoded segments —
		// the LinkedIn/Osano case-study shape (§5.4).
		for _, tgt := range s.Targets {
			id := safeIdent(tgt)
			fmt.Fprintf(&b, "let s_%s = get_cookie(%q);\n", id, tgt)
			fmt.Fprintf(&b, `if (s_%s != null) {
  let parts_%s = split(s_%s, ".");
  if (len(parts_%s) >= 2) {
    let seg_%s = parts_%s[len(parts_%s) - 1];
    let seg2_%s = parts_%s[len(parts_%s) - 2];
`, id, id, id, id, id, id, id, id, id, id)
			for _, p := range s.Partners {
				fmt.Fprintf(&b, "    send(%q, {%q: b64(seg2_%s) + \".\" + b64(seg_%s), \"u\": page_url()});\n",
					"https://"+p+"/sync", tgt, id, id)
			}
			fmt.Fprintf(&b, "  }\n}\n")
		}

	case KindConsent:
		// Send the consent signal (us_privacy-style, intended sharing).
		if len(s.Cookies) > 0 && len(s.Partners) > 0 {
			fmt.Fprintf(&b, "let sig = get_cookie(%q);\n", s.Cookies[0].Name)
			fmt.Fprintf(&b, "if (sig != null) { send(%q, {\"sig\": sig}); }\n",
				"https://"+s.Partners[0]+"/signal")
		}

	case KindDeleter:
		// Privacy-compliance deletion of tracking cookies (§5.5); the
		// site's A/B bucket is removed too when consent is declined,
		// contributing site-unique deleted pairs.
		fmt.Fprintf(&b, "let removed = 0;\n")
		fmt.Fprintf(&b, "let d_ab = get_cookie(\"ab_bucket\");\n")
		fmt.Fprintf(&b, "if (d_ab != null) { delete_cookie(\"ab_bucket\"); removed += 1; }\n")
		for _, tgt := range s.Targets {
			id := safeIdent(tgt)
			fmt.Fprintf(&b, "let d_%s = get_cookie(%q);\n", id, tgt)
			fmt.Fprintf(&b, "if (d_%s != null) { delete_cookie(%q); removed += 1; }\n", id, tgt)
		}
		if len(s.Partners) > 0 {
			fmt.Fprintf(&b, "send(%q, {\"removed\": str(removed)});\n",
				"https://"+s.Partners[0]+"/log")
		}

	case KindOverwriter:
		// Overwrite foreign cookies: mostly new value + refreshed
		// expiry; tealium-style refresh (expiry only) for one target.
		// Every overwriter also repurposes the site's own visit counter
		// — the FP-cookie manipulation that contributes the long tail
		// of Table 5's overwritten pairs.
		fmt.Fprintf(&b, "let o_vc = get_cookie(\"visit_count\");\n")
		fmt.Fprintf(&b, "if (o_vc != null) { set_cookie(\"visit_count\", \"9\", {\"max_age\": 31536000}); }\n")
		for i, tgt := range s.Targets {
			id := safeIdent(tgt)
			fmt.Fprintf(&b, "let o_%s = get_cookie(%q);\n", id, tgt)
			if i == 0 {
				fmt.Fprintf(&b, "if (o_%s != null) { set_cookie(%q, rand_id(32) + \".\" + rand_id(16), {\"max_age\": 31536000}); }\n", id, tgt)
			} else {
				// expiry refresh: same value, new Max-Age
				fmt.Fprintf(&b, "if (o_%s != null) { set_cookie(%q, o_%s, {\"max_age\": 31536000}); }\n", id, tgt, id)
			}
		}

	case KindCSReader:
		// Cross-domain CookieStore exfiltration (§5.3: rare).
		for _, tgt := range s.Targets {
			id := safeIdent(tgt)
			fmt.Fprintf(&b, "let cs_%s = cookiestore_get(%q);\n", id, tgt)
			fmt.Fprintf(&b, "if (cs_%s != null && len(cs_%s[\"value\"]) >= 8) { send(%q, {%q: cs_%s[\"value\"]}); }\n",
				id, id, "https://"+s.Partners[0]+"/cs", tgt, id)
		}

	case KindDOMMod:
		// Modify DOM elements the script does not own (§8 pilot).
		fmt.Fprintf(&b, `dom_set_text("banner", "Recommended for you");
dom_set_style("banner", "display", "block");
dom_insert("body", "div", {"id": "recs-slot", "class": "recs"});
`)
		if len(s.Partners) > 0 {
			fmt.Fprintf(&b, "send(%q, {\"ev\": \"recs_shown\"});\n", "https://"+s.Partners[0]+"/ev")
		}

	case KindAdRender:
		// Render the ad only if a foreign bid cookie is readable — the
		// minor-functionality breakage case of Table 3. Rendering is
		// deferred so the auction runs after every bid cookie exists,
		// regardless of script order.
		fmt.Fprintf(&b, "defer_run(fn() {\n")
		fmt.Fprintf(&b, "  let bid = null;\n")
		for _, tgt := range s.Targets {
			fmt.Fprintf(&b, "  if (bid == null) { bid = get_cookie(%q); }\n", tgt)
		}
		fmt.Fprintf(&b, `  if (bid != null) {
    dom_insert("ad-slot", "div", {"id": "ad-creative", "class": "ad"});
    send(%q, {"bid": bid});
  }
});
`, "https://"+s.Partners[0]+"/win")

	case KindWidget:
		fmt.Fprintf(&b, `dom_insert("body", "div", {"id": "widget-%s"});
on_click(fn() { dom_set_text("widget-%s", "open"); });
`, s.Name, s.Name)

	case KindCDNLib:
		fmt.Fprintf(&b, "let lib_ready = true;\n")

	case KindTagManager:
		// Children are injected by the per-site container script; the
		// base library only maintains its cookies (above).
		fmt.Fprintf(&b, "let dataLayer = [];\n")
	}
	return b.String()
}

// safeIdent converts a cookie name into a SiteScript identifier fragment.
func safeIdent(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('x')
		}
	}
	return b.String()
}
