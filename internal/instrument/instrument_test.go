package instrument

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"cookieguard/internal/browser"
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
let all = cookiestore_get_all();
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
	rec.ObserveJar(b.Jar())
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	return rec, rec.BuildVisitLog("shop.example", []*browser.Page{p}, nil)
}

func TestRecorderCapturesAllAPIs(t *testing.T) {
	_, v := instrumentedVisit(t)
	var httpSets, writes, reads, deletes, csOps int
	for _, ev := range v.Cookies {
		switch ev.Op {
		case OpHTTPSet:
			httpSets++
			if ev.Name == "srv_session" {
				t.Error("HttpOnly cookie must not be logged (§4.1)")
			}
		case OpWrite:
			writes++
		case OpRead:
			reads++
		case OpDelete:
			deletes++
		}
		if ev.API == APICookieStore {
			csOps++
		}
	}
	if httpSets != 1 || writes < 2 || reads < 2 || deletes != 1 || csOps < 3 {
		t.Fatalf("event mix: http=%d w=%d r=%d d=%d cs=%d", httpSets, writes, reads, deletes, csOps)
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

func TestFillFromAssignmentDeleteIdioms(t *testing.T) {
	cases := []struct {
		assignment string
		wantOp     Op
	}{
		{"a=1; Max-Age=3600", OpWrite},
		{"a=; Max-Age=0", OpDelete},
		{"a=; Max-Age=-1", OpDelete},
		{"a=1", OpWrite},
	}
	for _, c := range cases {
		ev := CookieEvent{Op: OpWrite}
		fillFromAssignment(&ev, c.assignment)
		if ev.Op != c.wantOp {
			t.Errorf("fillFromAssignment(%q) op = %v, want %v", c.assignment, ev.Op, c.wantOp)
		}
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
