package instrument

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/netsim"
)

func instrumentedVisit(t *testing.T) (*Recorder, VisitLog) {
	t.Helper()
	in := netsim.New()
	in.RegisterFunc("www.shop.example", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			http.SetCookie(w, &http.Cookie{Name: "srv_session", Value: "secret", HttpOnly: true})
			http.SetCookie(w, &http.Cookie{Name: "srv_pref", Value: "visible"})
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, `<html><head>
<script src="https://tracker.example/t.js"></script>
<script>set_cookie("inline_c", "iv");</script>
</head><body><div id="banner">x</div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	})
	in.RegisterFunc("tracker.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `
set_cookie("_tid", "abcdef1234567890", {"max_age": 3600});
let v = get_cookie("_tid");
cookiestore_set("cs_c", "csvalue123", {"max_age": 60});
let c = cookiestore_get("cs_c");
let missing = cookiestore_get("_nope");
delete_cookie("_tid");
dom_set_text("banner", "SPONSORED");
send("https://collect.example/px", {"v": "abcdef1234567890"});`)
	})
	in.RegisterFunc("collect.example", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})

	rec := NewRecorder()
	b, err := browser.New(browser.Options{
		Internet:         in,
		CookieMiddleware: []browser.CookieMiddleware{rec.Middleware()},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	return rec, rec.BuildVisitLog("shop.example", []*browser.Page{p}, nil)
}

// TestRecorderCapturesAllAPIs: the tracker's one document.cookie read
// and two cookieStore reads are one counted entry per API, beside one
// event per write, delete and visible HTTP set.
func TestRecorderCapturesAllAPIs(t *testing.T) {
	_, v := instrumentedVisit(t)
	var httpSets, writes, deletes, csWrites int
	reads := map[API]int{}
	for _, ev := range v.Cookies {
		switch ev.Op {
		case OpHTTPSet:
			httpSets++
			if ev.Name == "srv_session" {
				t.Error("HttpOnly cookie must not be logged (§4.1)")
			}
		case OpWrite:
			writes++
			if ev.API == APICookieStore {
				csWrites++
			}
		case OpRead:
			if reads[ev.API] != 0 {
				t.Errorf("second read entry for %s: %+v", ev.API, ev)
			}
			reads[ev.API] = ev.Count
		case OpDelete:
			deletes++
		}
		if ev.Op != OpRead && ev.Count != 0 {
			t.Errorf("%s event carries a count: %+v", ev.Op, ev)
		}
	}
	if httpSets != 1 || writes != 3 || deletes != 1 || csWrites != 1 ||
		reads[APIDocument] != 1 || reads[APICookieStore] != 2 {
		t.Fatalf("event mix: http=%d w=%d d=%d cs writes=%d reads=%v", httpSets, writes, deletes, csWrites, reads)
	}
}

func TestAttributionFields(t *testing.T) {
	_, v := instrumentedVisit(t)
	var sawTracker, sawInline bool
	for _, ev := range v.Cookies {
		if ev.Op != OpWrite {
			continue
		}
		if ev.ScriptDomain == "tracker.example" && ev.Name == "_tid" {
			sawTracker = true
			if ev.MaxAge != 3600 {
				t.Errorf("MaxAge = %d", ev.MaxAge)
			}
		}
		if ev.Inline && ev.Name == "inline_c" {
			sawInline = true
			if ev.ScriptDomain != "" {
				t.Error("inline writes must be unattributed")
			}
		}
	}
	if !sawTracker || !sawInline {
		t.Fatalf("missing writes: tracker=%v inline=%v", sawTracker, sawInline)
	}
}

func TestVisitLogArtifacts(t *testing.T) {
	_, v := instrumentedVisit(t)
	if !v.Complete() {
		t.Fatal("visit should be complete")
	}
	if len(v.Scripts) != 2 {
		t.Fatalf("scripts = %d", len(v.Scripts))
	}
	if len(v.Mutations) != 1 || v.Mutations[0].ByScript == "" {
		t.Fatalf("mutations = %+v", v.Mutations)
	}
	var beacon bool
	for _, r := range v.Requests {
		if r.Kind == "beacon" && r.InitiatorDomain == "tracker.example" {
			beacon = true
		}
	}
	if !beacon {
		t.Fatal("beacon request not attributed")
	}
	if v.Timing.LoadEvent <= 0 {
		t.Fatal("timing missing")
	}
}

func TestVisitLogJSONRoundTrip(t *testing.T) {
	_, v := instrumentedVisit(t)
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back VisitLog
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Site != v.Site || len(back.Cookies) != len(v.Cookies) ||
		len(back.Requests) != len(v.Requests) || !back.Complete() {
		t.Fatal("JSON round trip lost data")
	}
}

func TestIncompleteVisit(t *testing.T) {
	rec := NewRecorder()
	v := rec.BuildVisitLog("dead.example", nil, fmt.Errorf("no such host"))
	if v.Complete() || v.OK || v.Error == "" {
		t.Fatalf("failed visit misreported: %+v", v)
	}
}

// TestRecordedAssignmentsMatchJar drives a real browser: a script writes
// x, then makes one more assignment, and the event recorded for that
// assignment must carry the op, name, value and path of what the jar
// did with it.
func TestRecordedAssignmentsMatchJar(t *testing.T) {
	for _, assignment := range []string{
		// A parse that takes the first "max-age" anywhere in the line,
		// or ignores Expires, misjudges these four.
		"x=1; Max-Age=1; max-age=0",
		"x=1; expires=Thu, 01 Jan 1970 00:00:00 GMT",
		"x=max-age=0",
		"x=1; Path=/max-age=0",
		// Writes and the Max-Age deletion idiom.
		"x=1; Max-Age=3600",
		"x=; Max-Age=0",
		"x=; Max-Age=-1",
		"x=1",
		// No name: recorded as a nameless write, which the jar rejects.
		"=x; Max-Age=0",
	} {
		in := netsim.New()
		in.RegisterFunc("www.shop.example", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, `<html><head><script src="https://tracker.example/t.js"></script></head></html>`)
		})
		in.RegisterFunc("tracker.example", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `doc_set_cookie("x=seed"); doc_set_cookie(%q);`, assignment)
		})
		rec := NewRecorder()
		b, err := browser.New(browser.Options{
			Internet:         in,
			CookieMiddleware: []browser.CookieMiddleware{rec.Middleware()},
		})
		if err != nil {
			t.Fatal(err)
		}
		var changes []cookiejar.Change
		b.Jar().Observe(func(ch cookiejar.Change) {
			if ch.Source == cookiejar.SourceDocument {
				changes = append(changes, ch)
			}
		})
		if _, err := b.Visit("https://www.shop.example/"); err != nil {
			t.Fatal(err)
		}
		var writes []CookieEvent
		for _, ev := range rec.Events() {
			if ev.API == APIDocument && ev.Op != OpRead {
				writes = append(writes, ev)
			}
		}
		if len(writes) != 2 || len(changes) == 0 {
			t.Fatalf("%q: recorded %+v with jar changes %+v, want two writes", assignment, writes, changes)
		}
		ev := writes[1]
		got := [4]string{string(ev.Op), ev.Name, ev.Value, ev.Path}
		want := [4]string{string(OpWrite), "", "", ""}
		if len(changes) == 2 {
			ch := changes[1]
			op := OpWrite
			if ch.Kind == cookiejar.ChangeDeleted {
				op = OpDelete
			}
			want = [4]string{string(op), ch.Cookie.Name, ch.Cookie.Value, ch.Cookie.Path}
			if got[3] == "" {
				got[3] = "/" // no Path attribute: the jar took the page's default path
			}
		}
		if got != want {
			t.Errorf("%q recorded as [op name value path] %q, the jar did %q", assignment, got, want)
		}
		rec.Release()
	}
}

func TestMutationCrossDomain(t *testing.T) {
	cases := []struct {
		m    MutationRecord
		want bool
	}{
		{MutationRecord{ByScript: "https://a.example/x.js", OwnerScript: ""}, true},
		{MutationRecord{ByScript: "https://cdn.site.example/x.js", OwnerScript: ""}, false},
		{MutationRecord{ByScript: "https://a.example/x.js", OwnerScript: "https://a.example/y.js"}, false},
		{MutationRecord{ByScript: "", OwnerScript: ""}, false},
	}
	for i, c := range cases {
		if got := MutationCrossDomain(c.m, "site.example"); got != c.want {
			t.Errorf("case %d = %v, want %v", i, got, c.want)
		}
	}
}

// TestReleasedRecorderLeavesBuiltLogIntact: BuildVisitLog copies the
// events out, so a log built before Release keeps its cookies while a
// later recorder refills the pooled buffer.
func TestReleasedRecorderLeavesBuiltLogIntact(t *testing.T) {
	rec, v := instrumentedVisit(t)
	want, err := json.Marshal(v.Cookies)
	if err != nil {
		t.Fatal(err)
	}
	buf := rec.buf
	rec.Release()
	rec.Release()                  // a second Release is a no-op
	recorded := (*buf)[:cap(*buf)] // the array the visit recorded into
	for i, ev := range recorded {
		if !reflect.DeepEqual(ev, CookieEvent{}) {
			t.Fatalf("released buffer still holds event %d: %+v", i, ev)
		}
	}

	// A later recorder fills the array. The race detector's pool drops
	// some Puts, so the buffer may not come back from NewRecorder; fill
	// it directly as well, the way a recorder that took it would.
	for try := 0; try < 8; try++ {
		r := NewRecorder()
		if r.buf != buf {
			r.Release()
			continue
		}
		for j := range recorded {
			r.append(CookieEvent{Op: OpWrite, API: APIDocument, Name: "other", Value: strconv.Itoa(j)})
		}
		r.Release()
		break
	}
	for j := range recorded {
		recorded[j] = CookieEvent{Op: OpDelete, Name: "overwritten", Value: strconv.Itoa(j)}
	}
	defer clear(recorded)
	got, err := json.Marshal(v.Cookies)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("log cookies changed after Release:\n got %s\nwant %s", got, want)
	}
}

// TestReadRecordsCarryOnlyWhatAnalysisReads: a script's reads through
// one API are one entry that records that the jar was read, through
// which API, by which script and how often, and never a requested name
// or the cookies returned. No event carries a stack and no script record
// a parent; an injected script's injector is the last element of its
// inclusion path.
func TestReadRecordsCarryOnlyWhatAnalysisReads(t *testing.T) {
	const (
		tag    = "https://tagmgr.example/gtm.js"
		reader = "https://reader.example/r.js"
	)
	in := netsim.New()
	in.RegisterFunc("www.shop.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, `<html><head><script src="%s"></script></head><body></body></html>`, tag)
	})
	in.RegisterFunc("tagmgr.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `set_cookie("_uid", "uid4433236411aa", {"max_age": 3600});
cookiestore_set("cs_c", "csvalue123", {"max_age": 60});
inject(%q);`, reader)
	})
	in.RegisterFunc("reader.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `let a = get_cookie("_uid");
let b = cookiestore_get("cs_c");
let c = cookiestore_get("_uid");`)
	})
	rec := NewRecorder()
	defer rec.Release()
	b, err := browser.New(browser.Options{
		Internet:         in,
		CookieMiddleware: []browser.CookieMiddleware{rec.Middleware()},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	v := rec.BuildVisitLog("shop.example", []*browser.Page{p}, nil)
	line, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Cookies []map[string]any `json:"cookies"`
		Scripts []map[string]any `json:"scripts"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}

	want := []map[string]any{
		{"op": "read", "api": "document.cookie", "count": 1.0},
		{"op": "read", "api": "cookieStore", "count": 2.0},
	}
	var reads []map[string]any
	for _, ev := range got.Cookies {
		if _, ok := ev["stack"]; ok {
			t.Errorf("event carries a stack: %v", ev)
		}
		if ev["op"] != "read" {
			continue
		}
		for k, wantV := range map[string]any{
			"script_url": reader, "script_domain": "reader.example", "main_frame": true,
		} {
			if ev[k] != wantV {
				t.Errorf("read %v: %s = %v, want %v", ev, k, ev[k], wantV)
			}
		}
		delete(ev, "script_url")
		delete(ev, "script_domain")
		delete(ev, "main_frame")
		reads = append(reads, ev)
	}
	if !reflect.DeepEqual(reads, want) {
		t.Errorf("read events (attribution removed) = %v, want %v", reads, want)
	}

	if len(got.Scripts) != 2 {
		t.Fatalf("scripts = %v, want the tag and the script it injected", got.Scripts)
	}
	for _, s := range got.Scripts {
		if _, ok := s["parent"]; ok {
			t.Errorf("script record carries a parent: %v", s)
		}
	}
	if path := got.Scripts[1]["inclusion_path"]; !reflect.DeepEqual(path, []any{tag}) || got.Scripts[1]["url"] != reader {
		t.Errorf("injected script = %v, want %s with inclusion_path [%s]", got.Scripts[1], reader, tag)
	}
}

// TestVisitLogRelease: a built log copies every inclusion path out of
// its pages, so it reads the same after a pooled browser releases them.
// Release clears the log's buffers to their capacity and nils its
// slices; a second Release, and Release on a log decoded from JSON, do
// nothing.
func TestVisitLogRelease(t *testing.T) {
	const (
		tag    = "https://tagmgr.example/gtm.js"
		reader = "https://reader.example/r.js"
	)
	in := netsim.New()
	in.RegisterFunc("www.shop.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, `<html><head><script>inject(%q);</script></head><body><div id="d">x</div></body></html>`, tag)
	})
	in.RegisterFunc("tagmgr.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `set_cookie("_uid", "uid4433236411aa"); dom_set_text("d", "y"); inject(%q);`, reader)
	})
	in.RegisterFunc("reader.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `let a = get_cookie("_uid");`)
	})
	rec := NewRecorder()
	defer rec.Release()
	b, err := browser.New(browser.Options{
		Internet:         in,
		CookieMiddleware: []browser.CookieMiddleware{rec.Middleware()},
		Pooling:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	v := rec.BuildVisitLog("shop.example", []*browser.Page{p}, nil)
	indirect := 0
	for i, se := range p.Scripts {
		if len(se.InclusionPath) == 0 {
			continue
		}
		indirect++
		if &se.InclusionPath[0] == &v.Scripts[i].InclusionPath[0] {
			t.Errorf("script %d's inclusion path aliases the page's", i)
		}
	}
	if indirect != 2 || len(v.Mutations) == 0 || len(v.Cookies) == 0 {
		t.Fatalf("visit has %d injected scripts, %d mutations, %d cookie events; want 2 and some of each",
			indirect, len(v.Mutations), len(v.Cookies))
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if got, _ := json.Marshal(v); string(got) != string(want) {
		t.Fatalf("log changed when the browser released its pages:\n got %s\nwant %s", got, want)
	}

	bufs := v.bufs
	v.Release()
	if v.Cookies != nil || v.Requests != nil || v.Scripts != nil || v.Mutations != nil || v.bufs != nil {
		t.Fatalf("released log keeps slices: %+v", v)
	}
	v.Release() // a second Release is a no-op
	for name, n := range map[string]int{
		"cookies":   countNonZero(bufs.cookies),
		"requests":  countNonZero(bufs.requests),
		"scripts":   countNonZero(bufs.scripts),
		"mutations": countNonZero(bufs.mutations),
		"paths":     countNonZero(bufs.paths),
	} {
		if n != 0 {
			t.Errorf("released %s buffer still holds %d entries", name, n)
		}
	}

	var decoded VisitLog
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	decoded.Release()
	if got, _ := json.Marshal(decoded); string(got) != string(want) {
		t.Fatal("Release changed a log decoded from JSON")
	}
}

// countNonZero counts the entries of s, up to its capacity, that are not
// the zero value.
func countNonZero[E any](s []E) int {
	n := 0
	var zero E
	for _, e := range s[:cap(s)] {
		if !reflect.DeepEqual(e, zero) {
			n++
		}
	}
	return n
}

// TestParseLogHeader: a header line names a web, a record line is no
// header, and a header that cannot name a web is an error.
func TestParseLogHeader(t *testing.T) {
	want := LogHeader{Sites: 2000, Seed: 20250301, CMP: true}
	line := want.Line()
	if string(line) != `{"header":{"sites":2000,"seed":20250301,"cmp":true}}`+"\n" {
		t.Fatalf("header line %q", line)
	}
	if h, ok, err := ParseLogHeader(line); err != nil || !ok || h != want {
		t.Fatalf("ParseLogHeader(%q) = %+v, %v, %v", line, h, ok, err)
	}
	for _, rec := range []string{`{"site":"site00001.com","url":"https://www.site00001.com/","ok":true,"timing":{}}`, `{}`} {
		if _, ok, err := ParseLogHeader([]byte(rec)); ok || err != nil {
			t.Errorf("record %s read as a header (ok %v, err %v)", rec, ok, err)
		}
	}
	for _, bad := range []string{
		`{"header":{"sites":0,"seed":1}}`,
		`{"header":{"sites":-3,"seed":1}}`,
		`{"header":{"seed":1}}`,
		`{"header":null}`,
		`{"header":{}}`,
		`{"header":{"sites":"2000"}}`,
		`{"header":{"sites":2000,"workers":2}}`,
		`{"header":[2000]}`,
		`{"header":{"sites":2000}} x`,
		`{"header":{"sites":20`,
		`not json`,
	} {
		if h, ok, err := ParseLogHeader([]byte(bad)); ok || err == nil {
			t.Errorf("ParseLogHeader(%s) = %+v, %v, %v; want an error", bad, h, ok, err)
		}
	}
}
