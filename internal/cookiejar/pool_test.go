package cookiejar

import (
	"bytes"
	"fmt"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"cookieguard/internal/jsdsl"
	"cookieguard/internal/vclock"
)

// TestPooledJarWarmAllocs: once the pool is warm, a visit's script writes
// and the memo refills that follow them allocate nothing: the cookies go
// to the slab, the store and memo keep their maps and entries, and the
// page URL parses into the jar's own URL.
func TestPooledJarWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled jars under the race detector")
	}
	clock := vclock.New()
	pages := [2]string{site, site + "p/q"}
	lines := []string{
		"_ga=GA1.2.3.4; Path=/; Max-Age=63072000; SameSite=Lax",
		"_tid=abc; Domain=example.com; Max-Age=3600",
		"sid=1",
		"sid=2; Path=/p",
	}
	var pairs []jsdsl.CookiePair
	visit := func() {
		j := Acquire(clock)
		for i := 0; i < 24; i++ {
			page := pages[i%2]
			j.SetFromScript(page, lines[i%len(lines)], SourceDocument)
			pairs = j.DocumentCookiePairs(page, pairs[:0])
		}
		j.Release()
	}
	visit()
	if n := testing.AllocsPerRun(50, visit); n != 0 {
		t.Errorf("a warm pooled visit of 24 script writes and memo refills: %v allocs, want 0", n)
	}
	if len(pairs) != 4 {
		t.Fatalf("the last read saw %d cookies, want 4: %v", len(pairs), pairs)
	}
}

// TestReleaseBoundsRetainedJar: a released jar keeps its slab, store map
// and memo entries for the next visit, but no more than jarRetainMax
// cookie slots, and no store or memo map that held more entries.
func TestReleaseBoundsRetainedJar(t *testing.T) {
	mapOf := func(j *Jar) uintptr { return reflect.ValueOf(j.store).Pointer() }
	visit := func(j *Jar, cookies int) {
		j.clock = vclock.New()
		for i := 0; i < cookies; i++ {
			j.SetFromScript(site, fmt.Sprintf("c%d=v", i), SourceDocument)
		}
		docCookie(j, site)
	}

	j := New(nil)
	visit(j, 10)
	store, slab := mapOf(j), &j.slab[0][0]
	j.reset()
	if mapOf(j) != store || &j.slab[0][0] != slab || len(j.spare) != 1 || len(j.memo) != 0 || len(j.store) != 0 {
		t.Fatalf("a small visit's release: store kept %v, slab kept %v, %d spare memo entries, %d memo and %d store entries left; want everything kept and empty",
			mapOf(j) == store, &j.slab[0][0] == slab, len(j.spare), len(j.memo), len(j.store))
	}
	if j.slab[0][0] != (Cookie{}) {
		t.Fatalf("released slab still holds %+v", j.slab[0][0])
	}

	visit(j, 2*jarRetainMax)
	store = mapOf(j)
	j.reset()
	if mapOf(j) == store || len(j.slab)*slabChunk > jarRetainMax || j.memo != nil || len(j.spare) != 0 {
		t.Fatalf("a large visit's release: store kept %v, %d slab slots, memo %v, %d spare memo entries; want a new store, at most %d slots and no memo",
			mapOf(j) == store, len(j.slab)*slabChunk, j.memo, len(j.spare), jarRetainMax)
	}
	visit(j, 3)
	if got := docCookie(j, site); got != "c0=v; c1=v; c2=v" {
		t.Fatalf("document.cookie after a bounded release = %q", got)
	}
}

// TestConcurrentPooledJarReuse runs TestConcurrentPageURLs' writers and
// readers on pooled jars that two workers acquire and release visit
// after visit, so a jar reused across visits is shared between
// goroutines while it is live: each goroutine sees only its own host's
// cookie, and none of an earlier visit's.
func TestConcurrentPooledJarReuse(t *testing.T) {
	var workers sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for v := 0; v < 20; v++ {
				j := Acquire(vclock.New())
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						page := fmt.Sprintf("https://g%d.example.com/p", g)
						if got := docCookie(j, page); got != "" {
							t.Errorf("a new visit's document.cookie of %q = %q, want none", page, got)
							return
						}
						want := fmt.Sprintf("k=%d.%d.%d", w, v, g)
						for i := 0; i < 50; i++ {
							j.SetFromScript(page, want, SourceDocument)
							if got := docCookie(j, page); got != want {
								t.Errorf("document.cookie of %q = %q, want %q", page, got, want)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				j.Release()
			}
		}(w)
	}
	workers.Wait()
}

// reuseURLs are the request and page URLs a decoded sequence writes and
// reads through: canonical ones on a site and its subdomain, one only
// url.Parse takes, one on another site, and one that does not parse.
var reuseURLs = []string{
	"https://www.example.com/",
	"https://www.example.com/p/q",
	"http://sub.www.example.com/x",
	"https://www.example.com/a#top",
	"https://other.example.org/",
	"://bad",
}

// reuseAttrs are the attribute tails of a decoded write: paths, valid and
// public-suffix domains, deletions, expiries and HttpOnly.
var reuseAttrs = []string{
	"",
	"; Path=/",
	"; Path=/p",
	"; Domain=example.com",
	"; Domain=com",
	"; Max-Age=0",
	"; Max-Age=60",
	"; Max-Age=3600; Secure",
	"; HttpOnly",
	"; Expires=Thu, 01 Jan 1970 00:00:00 GMT",
}

// cookieString renders every field of c, or "-" for nil.
func cookieString(c *Cookie) string {
	if c == nil {
		return "-"
	}
	return fmt.Sprintf("%s=%s domain=%s hostOnly=%v path=%s expires=%s secure=%v httpOnly=%v sameSite=%v created=%s",
		c.Name, c.Value, c.Domain, c.HostOnly, c.Path, c.Expires, c.Secure, c.HttpOnly, c.SameSite, c.Created)
}

// runSequence decodes ops, four bytes an operation, and runs them on j
// with clock as j's clock: header writes, document.cookie and
// cookieStore writes, reads, cookieStore deletes (expired writes of the
// bare name) and clock advances. It
// appends to trace what each operation returned, every Change an
// observer receives (Cookie and Previous rendered during the call), and
// finally All().
func runSequence(j *Jar, clock *vclock.Clock, ops []byte, trace *[]string) {
	j.Observe(func(ch Change) {
		*trace = append(*trace, fmt.Sprintf("change %v %v %s %s prev %s",
			ch.Kind, ch.Source, ch.Host, cookieString(ch.Cookie), cookieString(ch.Previous)))
	})
	names := []string{"a", "b", "_ga"}
	for ; len(ops) >= 4; ops = ops[4:] {
		op, raw := ops[0]%6, reuseURLs[int(ops[1])%len(reuseURLs)]
		name := names[int(ops[2])%len(names)]
		line := fmt.Sprintf("%s=%d%s", name, ops[2]/3%4, reuseAttrs[int(ops[3])%len(reuseAttrs)])
		switch op {
		case 0:
			if u, err := url.Parse(raw); err == nil {
				*trace = append(*trace, "header "+j.SetFromHeader(u, line).String())
			}
		case 1:
			*trace = append(*trace, "document.cookie "+j.SetFromScript(raw, line, SourceDocument).String())
		case 2:
			*trace = append(*trace, "cookieStore "+j.SetFromScript(raw, line, SourceCookieStore).String())
		case 3:
			*trace = append(*trace, fmt.Sprint("read ", j.DocumentCookiePairs(raw, nil)))
		case 4:
			*trace = append(*trace, "delete "+j.SetFromScript(raw, name+"=; Max-Age=0", SourceCookieStore).String())
		case 5:
			clock.Advance(time.Duration(ops[2]) * 30 * time.Second)
		}
	}
	for _, c := range j.All() {
		*trace = append(*trace, "all "+cookieString(c))
	}
}

// FuzzJarReuse checks that a released jar is as good as a new one: the
// second sequence gives the same trace — reads, change kinds, Change
// cookies and Previous cookies, All() — on a new jar and on a jar that
// ran the first sequence and was reset, and the first sequence's
// observer hears nothing of the second.
func FuzzJarReuse(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 3, 0, 0, 0}, []byte{1, 0, 0, 0, 1, 0, 3, 6, 3, 0, 0, 0, 5, 0, 200, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 0, 2, 1, 8}, []byte{0, 0, 0, 8, 3, 0, 0, 0, 2, 1, 4, 2, 4, 1, 4, 0, 3, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{1, 0, 1, 1, 2, 1, 2, 7}, 40), []byte{3, 3, 0, 0, 1, 3, 5, 4, 1, 2, 0, 3, 3, 2, 0, 0})
	f.Add([]byte{}, bytes.Repeat([]byte{1, 0, 1, 1, 5, 0, 9, 0, 3, 0, 0, 0}, 20))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var fresh []string
		clock := vclock.New()
		runSequence(New(clock), clock, second, &fresh)

		var before, reused []string
		clock = vclock.New()
		j := New(clock)
		runSequence(j, clock, first, &before)
		j.reset()
		n := len(before)
		clock = vclock.New()
		j.clock = clock
		runSequence(j, clock, second, &reused)
		if len(before) != n {
			t.Fatalf("the first sequence's observer heard %d changes of the second", len(before)-n)
		}
		if !reflect.DeepEqual(fresh, reused) {
			for i := 0; i < len(fresh) && i < len(reused); i++ {
				if fresh[i] != reused[i] {
					t.Fatalf("step %d: new jar %q, reused jar %q", i, fresh[i], reused[i])
				}
			}
			t.Fatalf("new jar traced %d steps, reused jar %d", len(fresh), len(reused))
		}
	})
}
