package instrument

import (
	"reflect"
	"strconv"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/vclock"
)

// discardAPI stands below the recorder in the fuzz targets: every call
// goes nowhere after it is recorded, and every read finds no cookie.
type discardAPI struct{}

func (discardAPI) SetCookie(browser.AccessContext, cookiejar.Source, string) {}
func (discardAPI) GetDocumentCookie(_ browser.AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	return dst
}
func (discardAPI) StoreGet(browser.AccessContext, string) (jsdsl.CookieRecord, bool) {
	return jsdsl.CookieRecord{}, false
}

// FuzzRecordedAssignment checks the event the recorder logs for a script
// write against the jar's own parse of the line it writes: a
// document.cookie assignment, and the line browser.RecordAssignment
// renders for a cookieStore.set of a record. The event holds the name,
// value, domain and path cookiejar.ParseSetCookie reads, and OpDelete
// exactly when the cookie it parses is already expired. A line with no
// name is a nameless write.
func FuzzRecordedAssignment(f *testing.F) {
	for _, s := range []string{
		"a=1; Max-Age=3600",
		"a=; Max-Age=0",
		"a=; max-age = -1 ; path=/",
		"a=1",
		"a=1;",
		";",
		"=x; Domain=.Example.COM; Path=/p; MAX-AGE=5",
		"sid=abc; DOMAİN=example.com",
		"sid=abc; Path; Domain",
		"x=1; expires=Thu, 01 Jan 1970 00:00:00 GMT; max-age=0",
		"x=1; Max-Age=1; max-age=0",
		"x=1; İmax-age=0",
		"x=1; max-age=\xff0",
		"x=1; Key=1; max-age=+0",
		"  name = value ; secure ; samesite=Lax ; max-age=10",
		"x=1; expires=Thu, 01 Jan 1970 00:00:00 GMT",
		"x=max-age=0",
		"x=1; Path=/max-age=0",
		"x=1; Max-Age=9223372037",
	} {
		f.Add(s, "", "", "", "", int64(0), false, "")
	}
	// cookieStore.set records: names the jar trims or rejects, attributes
	// it normalizes, and fields that smuggle attributes into the line.
	for _, r := range []jsdsl.CookieRecord{
		{Name: " _tid", Value: "v"},
		{Name: "_tid ", Value: "v"},
		{Name: "a;b", Value: "v"},
		{Name: "a=b", Value: "v"},
		{Value: "v"},
		{Name: "a", Value: " 1 "},
		{Name: "a", Value: "1", Domain: ".Example.COM", Path: "/p", MaxAge: 5, Secure: true, SameSite: "Lax"},
		{Name: "a", MaxAge: -1},
		{Name: "a", Value: "1; Max-Age=0"},
		{Name: "a", Value: "1", SameSite: "Lax; Domain=x.example; Max-Age=-1"},
	} {
		f.Add("", r.Name, r.Value, r.Domain, r.Path, r.MaxAge, r.Secure, r.SameSite)
	}
	clock := vclock.New()
	check := func(t *testing.T, src cookiejar.Source, line string) {
		rec := NewRecorder()
		defer rec.Release()
		api := &recordingAPI{rec: rec, next: discardAPI{}, clock: clock}
		api.SetCookie(browser.AccessContext{PageURL: "https://www.shop.example/"}, src, line)
		got := rec.Events()[0]
		want := CookieEvent{Op: OpWrite, API: APIDocument}
		if src == cookiejar.SourceCookieStore {
			want.API = APICookieStore
		}
		if c, ok := cookiejar.ParseSetCookie(line, clock.Now()); ok {
			want.Name, want.Value, want.Domain, want.Path = c.Name, c.Value, c.Domain, c.Path
			if c.Expired(clock.Now()) {
				want.Op = OpDelete
			}
		}
		got.MaxAge = 0 // not a field of the parsed cookie
		if got != want {
			t.Fatalf("recorded %s line %q as %+v, the jar parses %+v", src, line, got, want)
		}
	}
	f.Fuzz(func(t *testing.T, assignment, name, value, domain, path string, maxAge int64, secure bool, sameSite string) {
		check(t, cookiejar.SourceDocument, assignment)
		check(t, cookiejar.SourceCookieStore, browser.RecordAssignment(jsdsl.CookieRecord{
			Name: name, Value: value, Domain: domain, Path: path, MaxAge: maxAge, Secure: secure, SameSite: sameSite}))
	})
}

// readers are the accessors FuzzRecordedReads draws from, with the
// script domain each one's events carry: inline code, page-level code
// (no script URL, not inline), a script in a non-main frame, the same
// script in the main frame, and inline code in a non-main frame.
var readers = []struct {
	ctx    browser.AccessContext
	domain string
}{
	{browser.AccessContext{PageURL: "https://www.shop.example/", Inline: true, MainFrame: true}, ""},
	{browser.AccessContext{PageURL: "https://www.shop.example/", MainFrame: true}, ""},
	{browser.AccessContext{PageURL: "https://ads.example/frame", ScriptURL: "https://cdn.tracker.example/t.js"}, "tracker.example"},
	{browser.AccessContext{PageURL: "https://www.shop.example/", ScriptURL: "https://cdn.tracker.example/t.js", MainFrame: true}, "tracker.example"},
	{browser.AccessContext{PageURL: "https://ads.example/frame", Inline: true}, ""},
}

// FuzzRecordedReads drives the recorder with a sequence of calls, one
// per fuzz byte: the byte picks a reader and one of two reads
// (document.cookie, cookieStore.get) or two writes (a document.cookie
// assignment, an expired cookieStore.set that deletes). A reference
// records every call as its own event and then collapses the reads: one
// entry per (script URL, inline, main frame, API), where that key was
// first read, counting its reads. The recorder must log exactly that,
// its counts must sum to the number of reads, and the writes must keep
// their call order.
func FuzzRecordedReads(f *testing.F) {
	for _, s := range []string{
		"",
		"\x00",
		"\x03\x08\x08\x0d\x03", // one script through both APIs, a write, a read
		"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09", // every reader through both APIs
		"\x0a\x03\x0b\x08\x0d\x03",                 // writes between the reads
		"\x0f\x00\x13\x05\x05\x0f",
	} {
		f.Add([]byte(s))
	}
	clock := vclock.New()
	f.Fuzz(func(t *testing.T, calls []byte) {
		rec := NewRecorder()
		defer rec.Release()
		api := &recordingAPI{rec: rec, next: discardAPI{}, clock: clock}

		var perCall, writes []CookieEvent
		reads := 0
		for i, b := range calls {
			r := readers[int(b)%len(readers)]
			ev := CookieEvent{
				ScriptURL: r.ctx.ScriptURL, ScriptDomain: r.domain,
				Inline: r.ctx.Inline, MainFrame: r.ctx.MainFrame,
			}
			name := "c" + strconv.Itoa(i)
			switch int(b) / len(readers) % 4 {
			case 0:
				api.GetDocumentCookie(r.ctx, nil)
				ev.Op, ev.API = OpRead, APIDocument
			case 1:
				api.StoreGet(r.ctx, name)
				ev.Op, ev.API = OpRead, APICookieStore
			case 2:
				api.SetCookie(r.ctx, cookiejar.SourceDocument, name+"=1")
				ev.Op, ev.API, ev.Name, ev.Value = OpWrite, APIDocument, name, "1"
			case 3:
				api.SetCookie(r.ctx, cookiejar.SourceCookieStore, name+"=; Max-Age=0")
				ev.Op, ev.API, ev.Name = OpDelete, APICookieStore, name
			}
			if ev.Op == OpRead {
				reads++
			} else {
				writes = append(writes, ev)
			}
			perCall = append(perCall, ev)
		}

		var want []CookieEvent
		first := map[CookieEvent]int{} // a read's key: its attributed event without the count
		for _, ev := range perCall {
			if ev.Op != OpRead {
				want = append(want, ev)
				continue
			}
			if i, ok := first[ev]; ok {
				want[i].Count++
				continue
			}
			first[ev] = len(want)
			ev.Count = 1
			want = append(want, ev)
		}

		got := rec.Events()
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("calls %x recorded\n%+v\nwant\n%+v", calls, got, want)
		}
		counted := 0
		var gotWrites []CookieEvent
		for _, ev := range got {
			if ev.Op == OpRead {
				counted += ev.Count
			} else {
				gotWrites = append(gotWrites, ev)
			}
		}
		if counted != reads {
			t.Fatalf("calls %x: read counts sum to %d, want %d reads", calls, counted, reads)
		}
		if !reflect.DeepEqual(gotWrites, writes) {
			t.Fatalf("calls %x: writes recorded as %+v, want %+v in call order", calls, gotWrites, writes)
		}
	})
}

// FuzzParseLogHeader checks the crawl-log header parse on any line: it
// never panics, an error is never a header, and a header it reads
// round-trips through its own line.
func FuzzParseLogHeader(f *testing.F) {
	for _, s := range []string{
		`{"header":{"sites":2000,"seed":20250301,"cmp":false}}`,
		`{"header":{"sites":1,"seed":0,"cmp":true}}`,
		`{"HEADER":{"Sites":7}}`,
		`{"header":{"sites":0}}`,
		`{"header":null}`,
		`{"header":{"sites":3,"extra":1}}`,
		`{"site":"site00001.com","ok":true,"timing":{}}`,
		`{"header":{"sites":1e3}}`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		h, ok, err := ParseLogHeader(line)
		if err != nil && ok {
			t.Fatalf("%q: a header and an error %v", line, err)
		}
		if !ok {
			return
		}
		if h.Sites <= 0 {
			t.Fatalf("%q: header with %d sites", line, h.Sites)
		}
		again, ok, err := ParseLogHeader(h.Line())
		if err != nil || !ok || again != h {
			t.Fatalf("%q: header %+v reads back from %q as %+v, %v, %v", line, h, h.Line(), again, ok, err)
		}
	})
}
