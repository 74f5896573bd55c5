package filterlist

// Embedded filter lists. These stand in for the nine crowd-sourced lists
// the paper combines (§4.3): EasyList, EasyPrivacy, Fanboy Annoyances,
// Fanboy Social, Peter Lowe's, Anti-Adblock Killer, Blockzilla, Squid
// blacklist, and the warning-removal list. Rules target the real tracker
// domains reproduced in the entity dataset plus the synthetic tracker
// namespace emitted by the web generator (trk-*.example / ads-*.example /
// cdn-trk-*.example and the *.tracking.dev pattern).

// EasyListLines are advertising rules.
var EasyListLines = []string{
	"! EasyList (reproduction snapshot)",
	"||doubleclick.net^",
	"||googlesyndication.com^",
	"||googleadservices.com^",
	"||amazon-adsystem.com^",
	"||adsrvr.org^",
	"||pubmatic.com^",
	"||openx.net^",
	"||criteo.com^",
	"||criteo.net^",
	"||taboola.com^",
	"||outbrain.com^",
	"||adthrive.com^",
	"||mediavine.com^",
	"||liadm.com^",
	"||33across.com^",
	"||casalemedia.com^",
	"||indexexchange.com^",
	"||lijit.com^",
	"||sharethrough.com^",
	"||rubiconproject.com^",
	"||magnite.com^",
	"||quantserve.com^",
	"||ezodn.com^",
	"||pub.network^",
	"||mountain.com^",
	"/adframe.",
	"/ad-slot^$script",
	"/banner-ad.",
	"||ads-*.example^$script",
	"-ad-delivery/",
}

// EasyPrivacyLines are tracking rules.
var EasyPrivacyLines = []string{
	"! EasyPrivacy (reproduction snapshot)",
	"||google-analytics.com^",
	"||googletagmanager.com^$third-party",
	"||clarity.ms^",
	"||hotjar.com^",
	"||segment.com^",
	"||segment.io^",
	"||tiqcdn.com^",
	"||demdex.net^",
	"||omtrdc.net^",
	"||adobedtm.com^",
	"||crwdcntrl.net^",
	"||bluekai.com^",
	"||facebook.net^$third-party",
	"||licdn.com^$third-party",
	"||yandex.ru^$third-party,script",
	"||statcounter.com^",
	"||gaconnector.com^",
	"||marketo.net^",
	"||mktoresp.com^",
	"||hs-analytics.net^",
	"||hscollectedforms.net^",
	"||hsleadflows.net^",
	"||id5-sync.com^",
	"||sc-static.net^",
	"||analytics.tiktok.com^",
	"||go-mpulse.net^",
	"||script.ac^",
	"||webvisor.org^",
	"/collect?*=", "-analytics.js", "/pixel?id=",
	"||trk-*.example^",
	"||cdn-trk-*.example^$script",
	"||*.tracking.dev^",
}

// FanboyAnnoyancesLines target widgets and overlays.
var FanboyAnnoyancesLines = []string{
	"! Fanboy Annoyances (reproduction snapshot)",
	"||usemessages.com^",
	"||intercomcdn.com^",
	"||driftt.com^",
	"/cookie-banner.$script",
	"/newsletter-popup.",
}

// FanboySocialLines target social widgets.
var FanboySocialLines = []string{
	"! Fanboy Social (reproduction snapshot)",
	"||platform.twitter.com^",
	"||connect.facebook.net^",
	"||pinimg.com^$third-party",
	"||sharethis.com^",
	"||addthis.com^",
	"/social-share.$script",
}

// PeterLoweLines is a hosts-style list (domain anchors only).
var PeterLoweLines = []string{
	"! Peter Lowe's (reproduction snapshot)",
	"||doubleclick.net^",
	"||liveintent.com^",
	"||quantcast.com^",
	"||yimg.jp^$third-party,script",
	"||cxense.com^",
}

// AntiAdblockKillerLines, BlockzillaLines, SquidLines, WarningRemovalLines
// round out the nine-list union.
var AntiAdblockKillerLines = []string{
	"! Anti-Adblock Killer (reproduction snapshot)",
	"/adblock-detector.$script",
	"||getadmiral.com^",
}

// BlockzillaLines is a small generic list.
var BlockzillaLines = []string{
	"! Blockzilla (reproduction snapshot)",
	"||envybox.io^",
	"||whitesaas.com^",
	"||c99.ai^",
	"||mango-office.ru^",
}

// SquidLines mirrors the squid blacklist role.
var SquidLines = []string{
	"! Squid blacklist (reproduction snapshot)",
	"||ketchjs.com^$third-party",
	"||insent.ai^",
}

// WarningRemovalLines carries exception rules, exercising @@ handling.
var WarningRemovalLines = []string{
	"! Warning removal (reproduction snapshot)",
	"@@||googletagmanager.com/gtag/consent-only.js$script",
	"@@||cookielaw.org^$script",
	"@@||cookiebot.com^$script",
	"@@||cdn-cookieyes.com^$script",
	"@@||cookie-script.com^$script",
	"@@||osano.com^$script",
}

// DefaultClassifier compiles the nine embedded lists, matching the
// paper's combined classifier.
func DefaultClassifier() *Classifier {
	return NewClassifier(
		Compile("easylist", EasyListLines),
		Compile("easyprivacy", EasyPrivacyLines),
		Compile("fanboy-annoyances", FanboyAnnoyancesLines),
		Compile("fanboy-social", FanboySocialLines),
		Compile("peterlowe", PeterLoweLines),
		Compile("anti-adblock-killer", AntiAdblockKillerLines),
		Compile("blockzilla", BlockzillaLines),
		Compile("squid", SquidLines),
		Compile("warning-removal", WarningRemovalLines),
	)
}

// ScriptTracker compiles the default classifier and returns it as the
// script-URL test analysis.Analyzer.IsTracker takes.
func ScriptTracker() func(scriptURL, siteDomain string) bool {
	clf := DefaultClassifier()
	return func(scriptURL, siteDomain string) bool {
		ok, _ := clf.IsTracker(Request{URL: scriptURL, SiteDomain: siteDomain, Type: TypeScript})
		return ok
	}
}
