package instrument

import (
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/cookiejar"
	"cookieguard/internal/vclock"
)

// discardAPI stands below the recorder in FuzzRecordedAssignment: the
// assignment goes nowhere after it is recorded.
type discardAPI struct{ browser.CookieAPI }

func (discardAPI) SetDocumentCookie(browser.AccessContext, string) {}

// FuzzRecordedAssignment checks the event the recorder logs for a
// document.cookie assignment against the jar's own parse of it: the name,
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
		f.Add(s)
	}
	clock := vclock.New()
	f.Fuzz(func(t *testing.T, assignment string) {
		rec := NewRecorder()
		defer rec.Release()
		api := &recordingAPI{rec: rec, next: discardAPI{}, clock: clock}
		api.SetDocumentCookie(browser.AccessContext{PageURL: "https://www.shop.example/"}, assignment)
		got := rec.Events()[0]
		want := CookieEvent{Op: OpWrite, API: APIDocument}
		if c := cookiejar.ParseSetCookie(assignment, clock.Now()); c != nil {
			want.Name, want.Value, want.Domain, want.Path = c.Name, c.Value, c.Domain, c.Path
			if c.Expired(clock.Now()) {
				want.Op = OpDelete
			}
		}
		got.MaxAge = 0 // not a field of the parsed cookie
		if got != want {
			t.Fatalf("recorded %q as %+v, the jar parses %+v", assignment, got, want)
		}
	})
}
