package analysis

import (
	"reflect"
	"testing"

	"cookieguard/internal/instrument"
)

func TestExtractIdentifiers(t *testing.T) {
	cases := []struct {
		value string
		want  []string
	}{
		{"GA1.1.444332364.1746838827", []string{"444332364", "1746838827"}},
		{"fb.0.1746746266109.868308499845957651", []string{"1746746266109", "868308499845957651"}},
		{"short.tiny", nil},
		{"", nil},
		{"abcdefgh", []string{"abcdefgh"}},
		{"x=longsegment12|another9", []string{"longsegment12", "another9"}},
		{"---", nil},
		// A newline is a delimiter like any other non-alphanumeric byte.
		{"abcdefgh1\nijklmnop2", []string{"abcdefgh1", "ijklmnop2"}},
		{"\nabcdefgh\n\n", []string{"abcdefgh"}},
	}
	for _, c := range cases {
		got := ExtractIdentifiers(c.value, 8)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ExtractIdentifiers(%q) = %v, want %v", c.value, got, c.want)
		}
	}
}

func TestEncodedForms(t *testing.T) {
	forms := EncodedForms("444332364")
	if forms[0] != "444332364" {
		t.Errorf("raw = %q", forms[0])
	}
	if forms[1] != "NDQ0MzMyMzY0" {
		t.Errorf("b64 = %q", forms[1])
	}
	if len(forms[2]) != 32 || len(forms[3]) != 40 {
		t.Errorf("hash lengths: md5=%d sha1=%d", len(forms[2]), len(forms[3]))
	}
}

// TestEncodedFormsKnownAnswers pins the encodings to published digests
// and the RFC 4648 Base64 alphabet, so a detector that matched its own
// wrong encodings cannot pass.
func TestEncodedFormsKnownAnswers(t *testing.T) {
	cases := []struct {
		id   string
		want []string // raw, Base64 without padding, MD5 hex, SHA-1 hex
	}{
		{"hello", []string{
			"hello",
			"aGVsbG8",
			"5d41402abc4b2a76b9719d911017c592",
			"aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d",
		}},
		{"Hello, World!", []string{
			"Hello, World!",
			"SGVsbG8sIFdvcmxkIQ", // "SGVsbG8sIFdvcmxkIQ==" with its padding stripped
			"65a8e27d8879283831b664bd8b7f0ad4",
			"0a0a9f2a6772942557ab5355d76af442f8f65e01",
		}},
	}
	for _, c := range cases {
		if got := EncodedForms(c.id); !reflect.DeepEqual(got, c.want) {
			t.Errorf("EncodedForms(%q) = %q, want %q", c.id, got, c.want)
		}
	}
}

// synthetic visit log helpers

func writeEv(api instrument.API, name, value, scriptURL string, maxAge int64) instrument.CookieEvent {
	return instrument.CookieEvent{
		Op: instrument.OpWrite, API: api, Name: name, Value: value,
		MaxAge: maxAge, ScriptURL: scriptURL,
		ScriptDomain: domainOf(scriptURL), MainFrame: true,
	}
}

func deleteEv(api instrument.API, name, scriptURL string) instrument.CookieEvent {
	return instrument.CookieEvent{
		Op: instrument.OpDelete, API: api, Name: name,
		ScriptURL: scriptURL, ScriptDomain: domainOf(scriptURL), MainFrame: true,
	}
}

func domainOf(url string) string {
	switch {
	case url == "":
		return ""
	case len(url) > 8 && url[:8] == "https://":
		host := url[8:]
		for i := 0; i < len(host); i++ {
			if host[i] == '/' {
				host = host[:i]
				break
			}
		}
		// crude eTLD+1 for test URLs like a.b.example
		return host[lastDot2(host):]
	}
	return ""
}

func lastDot2(host string) int {
	dots := 0
	for i := len(host) - 1; i >= 0; i-- {
		if host[i] == '.' {
			dots++
			if dots == 2 {
				return i + 1
			}
		}
	}
	return 0
}

const (
	setterJS = "https://cdn.tracker.example/set.js"
	readerJS = "https://cdn.other.example/read.js"
)

func baseLog() instrument.VisitLog {
	return instrument.VisitLog{
		Site: "shop.example", URL: "https://www.shop.example/", OK: true,
		Scripts: []instrument.ScriptRecord{
			{URL: setterJS, Domain: "tracker.example"},
			{URL: readerJS, Domain: "other.example"},
		},
		Requests: []instrument.RequestEvent{
			{URL: "https://www.shop.example/", Kind: "document", MainFrame: true},
		},
	}
}

func TestCrossDomainOverwriteDetected(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
		writeEv(instrument.APIDocument, "_tid", "zzzzzzzz99999999", readerJS, 7200),
	}
	res := New().Run([]instrument.VisitLog{v})
	if len(res.Events) != 1 {
		t.Fatalf("events = %+v", res.Events)
	}
	e := res.Events[0]
	if e.Kind != ActOverwriting || e.Cookie.Owner != "tracker.example" ||
		e.ActorDomain != "other.example" {
		t.Fatalf("event = %+v", e)
	}
	if !e.ChangedValue || !e.ChangedExpires {
		t.Fatalf("attr flags = %+v", e)
	}
}

func TestSameDomainOverwriteIgnored(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
		writeEv(instrument.APIDocument, "_tid", "different1234567", "https://static.tracker.example/other.js", 3600),
	}
	res := New().Run([]instrument.VisitLog{v})
	if len(res.Events) != 0 {
		t.Fatalf("same-domain overwrite flagged: %+v", res.Events)
	}
}

func TestCrossDomainDeleteDetected(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
		deleteEv(instrument.APIDocument, "_tid", readerJS),
	}
	res := New().Run([]instrument.VisitLog{v})
	if len(res.Events) != 1 || res.Events[0].Kind != ActDeleting {
		t.Fatalf("events = %+v", res.Events)
	}
	// deleting a non-existent cookie afterwards is a no-op
	v.Cookies = append(v.Cookies, deleteEv(instrument.APIDocument, "_tid", readerJS))
	res = New().Run([]instrument.VisitLog{v})
	if len(res.Events) != 1 {
		t.Fatalf("double delete counted twice: %+v", res.Events)
	}
}

func TestExfiltrationDetected(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_ga", "GA1.1.444332364.1746838827", setterJS, 3600),
	}
	v.Requests = append(v.Requests, instrument.RequestEvent{
		URL:             "https://px.dest.example/t?ga=NDQ0MzMyMzY0.LjE3NDY4Mzg4Mjc",
		Kind:            "beacon",
		InitiatorScript: readerJS,
		InitiatorDomain: "other.example",
		MainFrame:       true,
	})
	res := New().Run([]instrument.VisitLog{v})
	var exfil *Event
	for i := range res.Events {
		if res.Events[i].Kind == ActExfiltration {
			exfil = &res.Events[i]
		}
	}
	if exfil == nil {
		t.Fatal("b64-encoded exfiltration not detected")
	}
	if exfil.ActorDomain != "other.example" || exfil.Destination != "dest.example" {
		t.Fatalf("event = %+v", exfil)
	}
}

func TestOwnerExfiltrationNotCrossDomain(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
	}
	v.Requests = append(v.Requests, instrument.RequestEvent{
		URL:             "https://collect.elsewhere.example/t?v=abcdefgh12345678",
		Kind:            "beacon",
		InitiatorScript: setterJS, // the owner ships its own cookie
		InitiatorDomain: "tracker.example",
		MainFrame:       true,
	})
	res := New().Run([]instrument.VisitLog{v})
	for _, e := range res.Events {
		if e.Kind == ActExfiltration {
			t.Fatalf("owner's own send flagged as cross-domain: %+v", e)
		}
	}
}

func TestSendBackToOwnerNotExfiltration(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
	}
	v.Requests = append(v.Requests, instrument.RequestEvent{
		URL:             "https://sync.tracker.example/t?v=abcdefgh12345678",
		Kind:            "beacon",
		InitiatorScript: readerJS,
		InitiatorDomain: "other.example",
		MainFrame:       true,
	})
	res := New().Run([]instrument.VisitLog{v})
	for _, e := range res.Events {
		if e.Kind == ActExfiltration {
			t.Fatalf("send back to owner flagged: %+v", e)
		}
	}
}

func TestShortValuesNotExfiltratable(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "pref", "dark", setterJS, 3600),
	}
	v.Requests = append(v.Requests, instrument.RequestEvent{
		URL:             "https://px.dest.example/t?p=dark",
		Kind:            "beacon",
		InitiatorScript: readerJS,
		InitiatorDomain: "other.example",
		MainFrame:       true,
	})
	res := New().Run([]instrument.VisitLog{v})
	for _, e := range res.Events {
		if e.Kind == ActExfiltration {
			t.Fatalf("short value flagged: %+v", e)
		}
	}
}

func TestHTTPSetCookieOwnership(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		{Op: instrument.OpHTTPSet, API: instrument.APIHTTP, Name: "srv_csrf",
			Value: "a1b2c3d4e5f6a7b8", Domain: "shop.example", MainFrame: true},
		writeEv(instrument.APIDocument, "srv_csrf", "overwritten111111", readerJS, 60),
	}
	res := New().Run([]instrument.VisitLog{v})
	if len(res.Events) != 1 || res.Events[0].Kind != ActOverwriting ||
		res.Events[0].Cookie.Owner != "shop.example" {
		t.Fatalf("events = %+v", res.Events)
	}
}

func TestInlineWritesUnattributable(t *testing.T) {
	v := baseLog()
	inline := instrument.CookieEvent{
		Op: instrument.OpWrite, API: instrument.APIDocument,
		Name: "inline_c", Value: "val12345678", Inline: true, MainFrame: true,
	}
	cross := writeEv(instrument.APIDocument, "inline_c", "other9999999", readerJS, 60)
	v.Cookies = []instrument.CookieEvent{inline, cross}
	res := New().Run([]instrument.VisitLog{v})
	// owner is "" (unattributable); cross write counts as overwrite of
	// the unattributed owner
	if len(res.Events) != 1 {
		t.Fatalf("events = %+v", res.Events)
	}
}

func TestTable1Shapes(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
		writeEv(instrument.APIDocument, "_tid", "zzzzzzzz99999999", readerJS, 7200),
		writeEv(instrument.APICookieStore, "keep_alive", "csvalue123456", setterJS, 600),
	}
	res := New().Run([]instrument.VisitLog{v})
	rows := res.Table1()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	var owDoc *Table1Row
	for i := range rows {
		if rows[i].API == instrument.APIDocument && rows[i].Action == ActOverwriting {
			owDoc = &rows[i]
		}
		if rows[i].API == instrument.APICookieStore && rows[i].Action != ActExfiltration {
			if rows[i].CookieCount != 0 {
				t.Fatalf("cookieStore manipulation should be zero: %+v", rows[i])
			}
		}
	}
	if owDoc == nil || owDoc.PctOfWebsites != 100 || owDoc.CookieCount != 1 {
		t.Fatalf("doc overwrite row = %+v", owDoc)
	}
}

func TestSummaryCounts(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
	}
	incomplete := instrument.VisitLog{Site: "dead.example", OK: false}
	res := New().Run([]instrument.VisitLog{v, incomplete})
	if res.Summary.SitesTotal != 2 || res.Summary.SitesComplete != 1 {
		t.Fatalf("summary = %+v", res.Summary)
	}
	if res.Summary.SitesWithThirdParty != 1 {
		t.Fatalf("third-party sites = %d", res.Summary.SitesWithThirdParty)
	}
	if res.Summary.SitesUsingDocCookie != 1 || res.Summary.SitesUsingCookieStore != 0 {
		t.Fatalf("API usage = %+v", res.Summary)
	}
}

func TestMutationAnalysis(t *testing.T) {
	v := baseLog()
	v.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "x", "abcdefgh12345678", setterJS, 10),
	}
	v.Mutations = []instrument.MutationRecord{
		{Kind: "text", TargetID: "banner", OwnerScript: "", ByScript: readerJS},
	}
	res := New().Run([]instrument.VisitLog{v})
	if res.Summary.SitesWithCrossDomainDOM != 1 {
		t.Fatalf("DOM pilot count = %d", res.Summary.SitesWithCrossDomainDOM)
	}
	// Same-domain mutation is not cross-domain.
	v.Mutations = []instrument.MutationRecord{
		{Kind: "text", TargetID: "banner", OwnerScript: "", ByScript: "https://cdn.shop.example/fp.js"},
	}
	res = New().Run([]instrument.VisitLog{v})
	if res.Summary.SitesWithCrossDomainDOM != 0 {
		t.Fatal("same-domain mutation flagged")
	}
}
