package guard

import (
	"strings"
	"testing"

	"cookieguard/internal/jsdsl"
)

// filterDocCookieParsed is the reference filter: it parses the
// document.cookie string raw and joins the pairs accessor may read on
// site, reporting whether it dropped any.
func (g *Guard) filterDocCookieParsed(raw, accessor, site string) (string, bool) {
	names, values := jsdsl.ParseCookieString(raw)
	var kept []string
	filtered := false
	for _, n := range names {
		if g.mayAccess(accessor, g.bg.creatorOf(n), site) {
			kept = append(kept, n+"="+values[n])
		} else {
			filtered = true
		}
	}
	return strings.Join(kept, "; "), filtered
}

// rawPairs splits a document.cookie string into the pairs a jar would
// hand over for it: every segment with a name, in order, repeated names
// included.
func rawPairs(raw string) []jsdsl.CookiePair {
	var out []jsdsl.CookiePair
	for _, part := range strings.Split(raw, ";") {
		part = strings.TrimSpace(part)
		if eq := strings.IndexByte(part, '='); eq > 0 {
			out = append(out, jsdsl.CookiePair{
				Name:  strings.TrimSpace(part[:eq]),
				Value: strings.TrimSpace(part[eq+1:]),
			})
		}
	}
	return out
}

// joinPairs renders pairs as document.cookie does.
func joinPairs(pairs []jsdsl.CookiePair) string {
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = p.Name + "=" + p.Value
	}
	return strings.Join(parts, "; ")
}

// FuzzGuardDocCookieFilter checks the in-place document.cookie pair
// filter against the parse-and-join reference: the kept pairs join to
// the same string, the filtered flag is the same, and the caller's pairs
// below base are untouched. creators lists "name=creator" pairs
// separated by ','.
func FuzzGuardDocCookieFilter(f *testing.F) {
	const creators = "a=tracker.example,b=shop.example,c=other.example"
	for _, raw := range []string{
		"a=1; b=2; c=3",
		"a=1; a=2; b=3",         // repeated name (two paths or domains)
		"  a = 1 ;b=2  ;  c= 3", // whitespace around segments and pairs
		"a=1;; ; b=2;",          // empty segments
		"a=1; flag; b=2",        // segment with no '='
		"=x; a=1; =; b=2",       // segments starting with '='
		"",
		"a=; b==; c=x=y",
	} {
		for _, acc := range []string{"tracker.example", "shop.example", "other.example", "nobody.example"} {
			f.Add(raw, creators, acc, "shop.example", true)
		}
		f.Add(raw, creators, "tracker.example", "shop.example", false)
	}
	f.Fuzz(func(t *testing.T, raw, creators, accessor, site string, ownerFull bool) {
		pol := DefaultPolicy()
		pol.OwnerFullAccess = ownerFull
		g := New(pol)
		for _, pair := range strings.Split(creators, ",") {
			if n, c, ok := strings.Cut(pair, "="); ok {
				g.bg.record(n, c)
			}
		}
		want, wantFiltered := g.filterDocCookieParsed(raw, accessor, site)
		caller := jsdsl.CookiePair{Name: "caller", Value: "owned"}
		pairs := append([]jsdsl.CookiePair{caller}, rawPairs(raw)...)
		got, filtered := g.filterPairs(pairs, 1, accessor, site)
		if got[0] != caller {
			t.Fatalf("filtering %q overwrote the caller's pair: %+v", raw, got[0])
		}
		if s := joinPairs(got[1:]); s != want || filtered != wantFiltered {
			t.Fatalf("read of %q by %s on %s: in place = %q,%v; reference = %q,%v",
				raw, accessor, site, s, filtered, want, wantFiltered)
		}
	})
}

// TestGuardDocCookieFilterAllocs pins the filter's allocations: it
// filters the caller's buffer in place, so a read allocates nothing
// whether it drops some pairs, every pair or none.
func TestGuardDocCookieFilterAllocs(t *testing.T) {
	g := New(DefaultPolicy())
	g.bg.record("_ga", "tracker.example")
	g.bg.record("_fbp", "tracker.example")
	g.bg.record("sess", "other.example")
	g.bg.record("own", "tracker.example")
	for _, tc := range []struct {
		acc, raw, want string
		filtered       bool
	}{
		{"tracker.example", "_ga=GA1.2.3456; _fbp=fb.1.789; sess=abcdef", "_ga=GA1.2.3456; _fbp=fb.1.789", true},
		{"nobody.example", "_ga=GA1.2.3456; _fbp=fb.1.789; sess=abcdef", "", true},
		{"tracker.example", "_ga=GA1.2.3456; own=1; _fbp=fb.1.789; own=2", "_ga=GA1.2.3456; own=2; _fbp=fb.1.789", false},
	} {
		src := rawPairs(tc.raw)
		buf := make([]jsdsl.CookiePair, 0, len(src))
		read := func() ([]jsdsl.CookiePair, bool) {
			return g.filterPairs(append(buf[:0], src...), 0, tc.acc, "shop.example")
		}
		if got, filtered := read(); joinPairs(got) != tc.want || filtered != tc.filtered {
			t.Fatalf("%s reads %q as %q,%v; want %q,%v", tc.acc, tc.raw, joinPairs(got), filtered, tc.want, tc.filtered)
		}
		if n := testing.AllocsPerRun(100, func() { read() }); n != 0 {
			t.Errorf("%s reading %q: %v allocs, want 0", tc.acc, tc.raw, n)
		}
	}
}
