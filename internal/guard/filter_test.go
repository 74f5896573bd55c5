package guard

import (
	"strings"
	"testing"
)

// FuzzGuardDocCookieFilter checks the single-pass document.cookie filter
// against the parse-and-join reference: same string, same filtered flag.
// creators lists "name=creator" pairs separated by ','.
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
		p := &pageWrapper{g: g}
		want, wantFiltered := g.filterDocCookieParsed(raw, accessor, site)
		// Twice on one wrapper: the second read reuses the first's buffer.
		for i := 0; i < 2; i++ {
			got, filtered := p.filterDocCookie(raw, accessor, site)
			if got != want || filtered != wantFiltered {
				t.Fatalf("read %d of %q by %s on %s: single pass = %q,%v; reference = %q,%v",
					i, raw, accessor, site, got, filtered, want, wantFiltered)
			}
		}
	})
}

// TestGuardDocCookieFilterAllocs pins the filter's allocations: none
// when every pair is kept, at most the result string when one is not.
func TestGuardDocCookieFilterAllocs(t *testing.T) {
	g := New(DefaultPolicy())
	g.bg.record("_ga", "tracker.example")
	g.bg.record("_fbp", "tracker.example")
	g.bg.record("sess", "other.example")
	p := &pageWrapper{g: g}
	const raw = "_ga=GA1.2.3456; _fbp=fb.1.789; sess=abcdef"

	// Some pairs dropped (tracker.example) and every pair dropped.
	for _, acc := range []string{"tracker.example", "nobody.example"} {
		if _, filtered := p.filterDocCookie(raw, acc, "shop.example"); !filtered {
			t.Fatalf("%s: read not filtered", acc)
		}
		if n := testing.AllocsPerRun(100, func() { p.filterDocCookie(raw, acc, "shop.example") }); n > 1 {
			t.Errorf("%s: %v allocs per filtered read, want ≤ 1", acc, n)
		}
	}

	// Nothing filtered: the read returns raw itself.
	g.bg.record("own", "tracker.example")
	kept := "_ga=GA1.2.3456; own=1; _fbp=fb.1.789"
	if got, filtered := p.filterDocCookie(kept, "tracker.example", "shop.example"); got != kept || filtered {
		t.Fatalf("unfiltered read = %q,%v; want raw,false", got, filtered)
	}
	if n := testing.AllocsPerRun(100, func() { p.filterDocCookie(kept, "tracker.example", "shop.example") }); n != 0 {
		t.Errorf("%v allocs per unfiltered read, want 0", n)
	}
}
