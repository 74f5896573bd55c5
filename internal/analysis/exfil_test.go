package analysis

import (
	"context"
	"fmt"
	"net/url"
	"reflect"
	"slices"
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
func (a *Analyzer) oracleDetectExfiltration(v *instrument.VisitLog, state []cookieState,
	st *runState, siteActs map[actionAPIKey]bool) {
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
	for _, cs := range state {
		name := cs.name
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
			st.emit(Event{
				Kind: ActExfiltration, Cookie: c.key,
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
		start := len(st.curEvents)
		if oracle {
			a.oracleDetectExfiltration(v, state, st, siteActs)
		} else {
			a.detectExfiltration(v, state, st, siteActs)
		}
		out[i] = slices.Clone(st.curEvents[start:])
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

func crawlWebgen(t *testing.T, sites int, opts crawler.Options) []instrument.VisitLog {
	t.Helper()
	w := webgen.Build(webgen.DefaultConfig(sites))
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}
	opts.Internet = w.BuildInternet()
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
	clean := crawlWebgen(t, 60, crawler.Options{})
	if n := assertMatchersAgree(t, clean); n == 0 {
		t.Fatal("clean crawl produced no exfiltration events; the comparison is vacuous")
	}
	faults := netsim.UniformFaults(0.1, 7)
	lanes := crawlWebgen(t, 30, crawler.Options{
		Retry:    browser.RetryPolicy{MaxAttempts: 3},
		Vantages: []netsim.Vantage{{Name: "eu-west", Faults: faults}, {Name: "us-east", Faults: faults}},
		Personas: []string{"accept", "reject"},
	})
	if len(lanes) != 30*2*2 {
		t.Fatalf("lane crawl returned %d logs, want %d", len(lanes), 30*2*2)
	}
	// A request an injected fault touched failed on a transient class or
	// succeeded after a retry; a clean web shows neither.
	faulted := false
	for _, l := range lanes {
		for _, r := range l.Requests {
			faulted = faulted || browser.FailureClass(r.Failure).Transient() || r.Retries > 0 && !r.Failed
		}
	}
	if !faulted {
		t.Fatal("no log of the faulted lane crawl shows an injected fault")
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

// TestReplayKeepsOneCandidatePerName pins the replay slab's in-place
// overwrite: a cookie re-created or overwritten within one visit stays
// one cookie state and one matcher candidate, carrying its latest value
// and owner, with no dead duplicate beside it.
func TestReplayKeepsOneCandidatePerName(t *testing.T) {
	const (
		firstJS  = "https://cdn.first.example/f.js"
		secondJS = "https://cdn.second.example/s.js"
		thiefJS  = "https://cdn.thief.example/t.js"
		sink     = "https://px.sink.example/c?u="
	)
	oldID, newID := "0ldV4lue11", "N3wV4lue22"
	longID := strings.Repeat("L0ngId", 7) // 42 bytes: hashed from the reused id buffer
	httpSet := instrument.CookieEvent{Op: instrument.OpHTTPSet, API: instrument.APIHTTP,
		Name: "uid", Value: oldID, Domain: "shop.example", MainFrame: true}
	cases := []struct {
		name         string
		cookies      []instrument.CookieEvent
		sent         []string // one request each, in order
		value, owner string   // the candidate's latest value and owner
		id           string   // the identifier value holds
		exfil        int      // exfiltration events: only the latest value leaks
	}{
		{"deleted, then re-created by another script",
			[]instrument.CookieEvent{
				writeEv(instrument.APIDocument, "uid", oldID, firstJS, 3600),
				deleteEv(instrument.APIDocument, "uid", firstJS),
				writeEv(instrument.APIDocument, "uid", newID, secondJS, 3600),
			},
			[]string{oldID, newID}, newID, "second.example", newID, 1},
		{"HTTP-set, then overwritten by document.cookie",
			[]instrument.CookieEvent{httpSet,
				writeEv(instrument.APIDocument, "uid", newID, secondJS, 3600),
			},
			[]string{oldID, newID}, newID, "shop.example", newID, 1},
		{"identifier longer than 32 bytes",
			[]instrument.CookieEvent{
				writeEv(instrument.APIDocument, "uid", "v1."+longID, firstJS, 3600),
			},
			[]string{EncodedForms(longID)[2], EncodedForms(longID)[3]}, "v1." + longID, "first.example", longID, 2},
	}
	var logs []instrument.VisitLog
	for _, c := range cases {
		v := baseLog()
		v.Cookies = c.cookies
		for _, s := range c.sent {
			v.Requests = append(v.Requests, instrument.RequestEvent{URL: sink + s, Kind: "beacon",
				MainFrame: true, InitiatorScript: thiefJS, InitiatorDomain: "thief.example"})
		}
		logs = append(logs, v)
	}
	assertMatchersAgree(t, logs)
	events := matcherEvents(logs, false)
	a := New()
	st := newRunState()
	for i, c := range cases {
		v := &logs[i]
		st.beginObservation(v.Site, v.Vantage, v.Persona)
		state := a.replayCookies(v, st, map[actionAPIKey]bool{})
		if len(state) != 1 || state[0].name != "uid" || state[0].value != c.value || state[0].owner != c.owner || !state[0].live {
			t.Errorf("%s: replayed state %+v, want one live uid=%q owned by %s", c.name, state, c.value, c.owner)
		}
		m := &st.exfil
		want := CookieKey{Name: "uid", Owner: c.owner}
		if !m.reset(v.URL, state, a.MinIdentifierLen) || len(m.cands) != 1 || m.cands[0].key != want {
			t.Errorf("%s: candidates %+v, want one for %+v", c.name, m.cands, want)
		} else if forms := m.forms[m.cands[0].lo:m.cands[0].hi]; !reflect.DeepEqual(forms, EncodedForms(c.id)) {
			t.Errorf("%s: candidate forms %q, want %q", c.name, forms, EncodedForms(c.id))
		}
		st.endObservation()
		var got []CookieKey
		for _, e := range events[i] {
			if e.Kind == ActExfiltration {
				got = append(got, e.Cookie)
			}
		}
		if len(got) != c.exfil || len(got) > 0 && got[0] != want {
			t.Errorf("%s: exfiltrated %+v, want %d events of %+v", c.name, got, c.exfil, want)
		}
	}
}

// TestExfilMatcherAllocs pins the warm cost of the exfiltration fold:
// once a runState's buffers have grown, replaying a visit and matching
// its requests allocates one string per observation with candidates
// (its forms), and nothing per scanned request, though nearly every
// beacon carries the escaped page URL: unescaped values are matched as
// bytes in the matcher's reused buffer. The pass leaves each
// observation's events in the reused scratch slice: endObservation's
// one exact-size copy into the site's record is not part of the fold.
func TestExfilMatcherAllocs(t *testing.T) {
	logs := crawlWebgen(t, 30, crawler.Options{})
	a := New()
	st := newRunState()
	siteActs := map[actionAPIKey]bool{}
	bound, escaped := 0, 0
	pass := func(count bool) {
		st.curEvents = st.curEvents[:0]
		for i := range logs {
			v := &logs[i]
			if !v.Complete() {
				continue
			}
			st.beginObservation(v.Site, v.Vantage, v.Persona)
			state := a.replayCookies(v, st, siteActs)
			a.detectExfiltration(v, state, st, siteActs)
			if !count || !st.exfil.reset(v.URL, state, a.MinIdentifierLen) {
				continue
			}
			bound++
			for _, req := range v.Requests {
				if req.MainFrame && req.InitiatorScript != "" && req.InitiatorDomain != "" &&
					st.exfil.scan(req.URL, a.MinIdentifierLen) != "" && len(st.exfil.decEnds) > 0 {
					escaped++
				}
			}
		}
	}
	pass(true) // warm every buffer, map and pair set, and count the bound
	if len(st.curEvents) == 0 {
		t.Fatal("the crawl produced no events; the measurement is vacuous")
	}
	got := testing.AllocsPerRun(5, func() { pass(false) })
	if escaped == 0 {
		t.Fatal("no scanned request had an escaped query value; the bound is vacuous for them")
	}
	t.Logf("%v allocations per pass, bound %d (one per observation; %d scans with escaped values)", got, bound, escaped)
	if got > float64(bound) {
		t.Errorf("warm fold: %v allocations per pass, want at most %d", got, bound)
	}
}
