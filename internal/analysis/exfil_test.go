package analysis

import (
	"context"
	"fmt"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/crawler"
	"cookieguard/internal/instrument"
	"cookieguard/internal/netsim"
	"cookieguard/internal/urlutil"
	"cookieguard/internal/webgen"
)

// oracleDetectExfiltration is the token-map matcher that exfilMatcher
// replaced, kept as a differential oracle: per request it builds a set
// of the identifier runs of the raw query and of the "\n"-joined decoded
// query values, and tests every form against that set (and long forms
// against both strings).
func (a *Analyzer) oracleDetectExfiltration(v *instrument.VisitLog, site string,
	state map[string]*cookieState, st *runState, siteActs map[actionAPIKey]bool) {
	res := st.res
	urlTokens := map[string]bool{}
	for _, tok := range ExtractIdentifiers(v.URL, a.MinIdentifierLen) {
		urlTokens[tok] = true
	}
	type candidate struct {
		key   CookieKey
		api   instrument.API
		forms []string
	}
	var candidates []candidate
	for name, cs := range state {
		if cs.value == "" {
			continue
		}
		ids := ExtractIdentifiers(cs.value, a.MinIdentifierLen)
		if len(ids) == 0 {
			continue
		}
		var forms []string
		for _, id := range ids {
			if urlTokens[id] {
				continue
			}
			forms = append(forms, EncodedForms(id)...)
		}
		candidates = append(candidates, candidate{
			key: CookieKey{Name: name, Owner: cs.owner}, api: cs.api, forms: forms,
		})
	}
	if len(candidates) == 0 {
		return
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].key.Name < candidates[j].key.Name
	})
	for _, req := range v.Requests {
		if !req.MainFrame || req.InitiatorScript == "" {
			continue
		}
		query := oracleQueryString(req.URL)
		if query == "" {
			continue
		}
		decoded := strings.Join(oracleQueryValues(req.URL), "\n")
		destDomain := urlutil.RegistrableDomain(req.URL)
		actorDomain := req.InitiatorDomain
		tokens := map[string]bool{}
		for _, tok := range ExtractIdentifiers(query, a.MinIdentifierLen) {
			tokens[tok] = true
		}
		for _, tok := range ExtractIdentifiers(decoded, a.MinIdentifierLen) {
			tokens[tok] = true
		}
		for _, c := range candidates {
			if actorDomain == "" || actorDomain == c.key.Owner || destDomain == c.key.Owner {
				continue
			}
			hit := false
			for _, f := range c.forms {
				if tokens[f] || len(f) >= 12 && (strings.Contains(query, f) || strings.Contains(decoded, f)) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			st.ensurePair(c.key, c.api)
			res.Events = append(res.Events, Event{
				Site: site, Kind: ActExfiltration, Cookie: c.key,
				ActorScript: req.InitiatorScript, ActorDomain: actorDomain,
				API: c.api, Destination: destDomain,
			})
			siteActs[actionAPIKey{ActExfiltration, c.api}] = true
		}
	}
}

// oracleQueryString is the raw query of a URL, "" if it does not parse.
func oracleQueryString(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return u.RawQuery
}

// oracleQueryValues is every decoded query value of a URL, sorted by
// key, then by position.
func oracleQueryValues(rawURL string) []string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil
	}
	q := u.Query()
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		out = append(out, q[k]...)
	}
	return out
}

// matcherEvents replays each log's cookies and runs one matcher over it,
// returning the events of each observation. One runState serves every
// log, so the production matcher's scratch is reused across
// observations exactly as in a run.
func matcherEvents(logs []instrument.VisitLog, oracle bool) [][]Event {
	a := New()
	st := newRunState()
	out := make([][]Event, len(logs))
	for i := range logs {
		v := &logs[i]
		st.beginObservation(v.Site, v.Vantage, v.Persona)
		siteActs := map[actionAPIKey]bool{}
		state := a.replayCookies(v, st, siteActs)
		start := len(st.res.Events)
		if oracle {
			a.oracleDetectExfiltration(v, v.Site, state, st, siteActs)
		} else {
			a.detectExfiltration(v, v.Site, state, st, siteActs)
		}
		out[i] = st.res.Events[start:]
		st.endObservation()
	}
	return out
}

// assertMatchersAgree fails if the two matchers' events differ on any
// log, and returns how many exfiltration events they found.
func assertMatchersAgree(t *testing.T, logs []instrument.VisitLog) int {
	t.Helper()
	got, want := matcherEvents(logs, false), matcherEvents(logs, true)
	n := 0
	for i := range logs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("log %d (%s %s/%s): matcher events\n%+v\noracle events\n%+v",
				i, logs[i].Site, logs[i].Vantage, logs[i].Persona, got[i], want[i])
		}
		n += len(got[i])
	}
	return n
}

func crawlWebgen(t *testing.T, sites int, opts crawler.Options, faults *netsim.FaultConfig) []instrument.VisitLog {
	t.Helper()
	w := webgen.Build(webgen.DefaultConfig(sites))
	in := w.BuildInternet()
	if faults != nil {
		in.SetFaultModel(netsim.SeededFaults(*faults))
	}
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}
	opts.Internet = in
	opts.Workers = 4
	opts.Interact = true
	logs, errs := crawler.Stream(context.Background(), crawler.SiteURLs(domains), opts)
	var out []instrument.VisitLog
	for l := range logs {
		out = append(out, l)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	return out
}

func TestExfilMatcherAgreesWithOracleOnWebgenCrawls(t *testing.T) {
	clean := crawlWebgen(t, 60, crawler.Options{}, nil)
	if n := assertMatchersAgree(t, clean); n == 0 {
		t.Fatal("clean crawl produced no exfiltration events; the comparison is vacuous")
	}
	faults := netsim.UniformFaults(0.1, 7)
	lanes := crawlWebgen(t, 30, crawler.Options{
		Retry:    browser.RetryPolicy{MaxAttempts: 3},
		Vantages: []netsim.Vantage{{Name: "eu-west"}, {Name: "us-east"}},
		Personas: []string{"accept", "reject"},
	}, &faults)
	if len(lanes) != 30*2*2 {
		t.Fatalf("lane crawl returned %d logs, want %d", len(lanes), 30*2*2)
	}
	if n := assertMatchersAgree(t, lanes); n == 0 {
		t.Fatal("faulted lane crawl produced no exfiltration events")
	}
}

func TestExfilMatcherAgreesWithOracleOnEdgeCases(t *testing.T) {
	const (
		ownerJS = "https://cdn.owner.example/o.js"
		thiefJS = "https://cdn.thief.example/t.js"
		sink    = "https://px.sink.example/c"
	)
	short := "k9x8c7v6"            // 8 chars: must match a whole run
	long := "Mn4Bv8Cx2Zl6Qw"       // 14 chars: may match as a substring
	split := "Sp1itAcr0ssVals"     // never sent whole
	b64src := "Zq7Xw3Lp9Rt2"       // sent only as its Base64 form
	b64 := EncodedForms(b64src)[1] // "WnE3WHczTHA5UnQy"
	shared := "Sh4redV4lue99"      // two cookies, one value

	req := func(u string) instrument.RequestEvent {
		return instrument.RequestEvent{URL: u, Kind: "beacon", MainFrame: true,
			InitiatorScript: thiefJS, InitiatorDomain: "thief.example"}
	}
	cases := []struct {
		name string
		url  string
		want []string // exfiltrated cookie names, in emission order
	}{
		// %2B and %2F (Base64's '+' and '/') fence the short form: the
		// raw run is "2Bk9x8c7v62F", only the decoded value has the run.
		{"short form only percent-encoded", sink + "?p=%2B" + short + "%2F", []string{"c_short"}},
		// The Base64 form with its first letter percent-encoded appears
		// whole only after decoding.
		{"base64 form only percent-encoded", sink + fmt.Sprintf("?d=%%%02X", b64[0]) + b64[1:], []string{"c_b64"}},
		{"base64 form raw", sink + "?d=" + b64 + "&z=1", []string{"c_b64"}},
		{"long form as substring", sink + "?d=xx" + long + "yy", []string{"c_long"}},
		{"short form as substring", sink + "?d=xx" + short + "yy", nil},
		{"form split across two values", sink + "?a=Sp1itAcr&b=0ssVals", nil},
		{"one value, two cookies", sink + "?s=" + shared, []string{"c_shared1", "c_shared2"}},
		{"unparsable URL", sink + "?uid=" + long + "\x01", nil},
		{"empty query", sink + "/" + long + "?", nil},
		{"no query", sink + "/" + long, nil},
		{"semicolon drops the decoded value", sink + "?a=1;u=%2B" + short, nil},
		{"bad escape drops the decoded value", sink + "?u=%zz%2B" + short, nil},
		{"plus decodes to a delimiter", sink + "?u=" + short + "+" + long, []string{"c_long", "c_short"}},
	}

	var logs []instrument.VisitLog
	for i, c := range cases {
		v := baseLog()
		v.Site = fmt.Sprintf("edge%02d.example", i)
		v.URL = "https://www." + v.Site + "/"
		v.Cookies = []instrument.CookieEvent{
			writeEv(instrument.APIDocument, "c_short", short, ownerJS, 3600),
			writeEv(instrument.APIDocument, "c_long", "v1."+long, ownerJS, 3600),
			writeEv(instrument.APIDocument, "c_split", split, ownerJS, 3600),
			writeEv(instrument.APIDocument, "c_b64", b64src, ownerJS, 3600),
			writeEv(instrument.APIDocument, "c_shared2", shared, ownerJS, 3600),
			writeEv(instrument.APIDocument, "c_shared1", shared, ownerJS, 3600),
		}
		v.Requests = append(v.Requests, req(c.url))
		logs = append(logs, v)
	}
	assertMatchersAgree(t, logs)
	got := matcherEvents(logs, false)
	for i, c := range cases {
		var names []string
		for _, e := range got[i] {
			if e.Kind == ActExfiltration {
				names = append(names, e.Cookie.Name)
			}
		}
		if !reflect.DeepEqual(names, c.want) {
			t.Errorf("%s (%q): exfiltrated %v, want %v", c.name, c.url, names, c.want)
		}
	}
}
