package cookiejar

import (
	"testing"

	"cookieguard/internal/webgen"
)

// fuzzSetCookies returns every Set-Cookie line a small generated web's
// landing pages send, fetched over its fabric.
func fuzzSetCookies(f *testing.F) []string {
	w := webgen.Build(webgen.DefaultConfig(12))
	client := w.BuildInternet().Client()
	var lines []string
	for _, s := range w.CompleteSites() {
		resp, err := client.Get("https://" + s.Host + "/")
		if err != nil {
			f.Fatal(err)
		}
		resp.Body.Close()
		lines = append(lines, resp.Header.Values("Set-Cookie")...)
	}
	if len(lines) == 0 {
		f.Fatal("the generated web set no cookies")
	}
	return lines
}

// FuzzParseSetCookie checks that ParseSetCookie never panics on any
// line, and that a cookie it returns has a name.
func FuzzParseSetCookie(f *testing.F) {
	for _, l := range fuzzSetCookies(f) {
		f.Add(l)
	}
	for _, l := range []string{
		"_ga=GA1.1.444332364.1746838827; Domain=.example.com; Path=/; Expires=Wed, 21 Oct 2026 07:28:00 GMT",
		"id=1; Max-Age=0",
		"id=1; max-age=-5; Expires=garbage; SameSite=None; Secure; HttpOnly",
		"=novalue; Path=/",
		";;=;",
	} {
		f.Add(l)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if c := ParseSetCookie(line, t0); c != nil && c.Name == "" {
			t.Fatalf("ParseSetCookie(%q) returned a cookie with no name", line)
		}
	})
}
