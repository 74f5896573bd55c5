package filterlist

import (
	"strings"
	"testing"
)

// fuzzRequests are the fixed requests every fuzzed rule is matched
// against: third- and first-party scripts, an image, a subdocument, a
// URL with a port, query and fragment, and inputs that are not URLs.
var fuzzRequests = []Request{
	{URL: "https://www.googletagmanager.com/gtag/js?id=G-1", SiteDomain: "shop.example", Type: TypeScript},
	{URL: "https://cdn.shop.example/app.js", SiteDomain: "shop.example", Type: TypeScript},
	{URL: "https://trk-3.example/pixel.gif?u=https%3A%2F%2Fshop.example%2F", SiteDomain: "shop.example", Type: TypeImage},
	{URL: "https://ads-7.example:8443/ad-slot/frame.html#x", SiteDomain: "news.example", Type: TypeSubdocument},
	{URL: "http://a.b.tracking.dev/", SiteDomain: "", Type: TypeOther},
	{URL: "not a url", SiteDomain: "shop.example", Type: TypeScript},
	{URL: "", SiteDomain: "", Type: TypeScript},
}

// FuzzParseRule parses one filter line, compiles it as a list and
// classifies the fixed requests with it: nothing may panic, comment and
// blank lines parse to nil, and the list holds exactly the rules that
// parse.
func FuzzParseRule(f *testing.F) {
	for _, lines := range [][]string{
		EasyListLines, EasyPrivacyLines, FanboyAnnoyancesLines,
		FanboySocialLines, PeterLoweLines, AntiAdblockKillerLines,
		BlockzillaLines, SquidLines, WarningRemovalLines,
	} {
		for _, line := range lines {
			f.Add(line)
		}
	}
	for _, line := range []string{
		"", "   ", "!", "[Adblock Plus 2.0]", "||", "@@", "|", "$", "*", "^",
		"||a^$", "||a$domain=", "||a$domain=|~", "@@|https://*^$script,~3p",
		"example.com##.ad", "example.com#@#.ad", "||trk-*.example^$image",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r := ParseRule(line)
		if trimmed := strings.TrimSpace(line); (trimmed == "" || strings.HasPrefix(trimmed, "!")) && r != nil {
			t.Fatalf("ParseRule(%q) = %+v, want nil for a comment or blank line", line, r)
		}
		l := Compile("fuzz", []string{line})
		want := 0
		if r != nil {
			want = 1
		}
		if l.Len() != want {
			t.Fatalf("Compile(%q).Len() = %d, want %d", line, l.Len(), want)
		}
		c := NewClassifier(l)
		for _, req := range fuzzRequests {
			c.IsTracker(req)
		}
	})
}
