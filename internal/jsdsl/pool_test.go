package jsdsl

import (
	"slices"
	"strings"
	"testing"
)

// TestAcquireReleaseReuse: a pooled interpreter produces the same results
// as a fresh one, run after run, including across Release cycles.
func TestAcquireReleaseReuse(t *testing.T) {
	src := `
let acc = [];
for (i in [0, 1, 2, 3, 4]) {
  push(acc, str(i + i));
}
for (k in {"b": 2, "a": 1}) { push(acc, k); }
log(join(acc, ","));`
	want := func() string {
		h := &NopHost{}
		in := NewInterp(h)
		if err := in.RunSource(src); err != nil {
			t.Fatal(err)
		}
		return h.Logs[0]
	}()
	for i := 0; i < 3; i++ {
		h := &NopHost{}
		in := AcquireInterp(h)
		if err := in.RunSource(src); err != nil {
			t.Fatal(err)
		}
		if h.Logs[0] != want {
			t.Fatalf("pooled run %d: %q != %q", i, h.Logs[0], want)
		}
		in.Release()
	}
}

// TestScopePoolClosureCapture: scopes captured by closures must survive
// the scope pool — the closure still sees its variables after the block
// that created it has exited (and its sibling scopes were recycled).
func TestScopePoolClosureCapture(t *testing.T) {
	src := `
for (i in [0, 1, 2]) {
  let x = i + 10;
  on_click(fn() { log(str(x + i)); });
}
for (j in "` + strings.Repeat("j", 50) + `") { let waste = j; }`
	h := &clickHost{}
	in := AcquireInterp(h)
	if err := in.RunSource(src); err != nil {
		t.Fatal(err)
	}
	for _, cb := range h.clicks {
		cb()
	}
	in.Release()
	if got := strings.Join(h.Logs, ","); got != "10,12,14" {
		t.Fatalf("closure capture broken under scope pooling: %q", got)
	}
}

// TestReleaseAfterCapturedGlobals: a script that leaves a closure in the
// global scope must not poison the next pooled run.
func TestReleaseAfterCapturedGlobals(t *testing.T) {
	h1 := &NopHost{}
	in := AcquireInterp(h1)
	if err := in.RunSource(`let f = fn() { log("1"); }; defer_run(f);`); err != nil {
		t.Fatal(err)
	}
	in.Release()

	h2 := &NopHost{}
	in2 := AcquireInterp(h2)
	// A fresh run must not see f.
	if err := in2.RunSource(`defer_run(f);`); err == nil {
		t.Fatal("globals leaked across Release")
	}
	in2.Release()
}

// TestReleaseClearsCapturedGlobalsInPlace: no closure may run after
// Release, so Release empties a global scope a closure captured in place
// rather than make a new one: it allocates nothing, and the next run sees
// none of the old variables.
func TestReleaseClearsCapturedGlobalsInPlace(t *testing.T) {
	in := NewInterp(&NopHost{})
	if err := in.RunSource(`let secret = "x"; let f = fn() { log(secret); };`); err != nil {
		t.Fatal(err)
	}
	g := in.globals
	if !g.captured {
		t.Fatal("the closure did not capture the global scope")
	}
	in.Release()
	if in.globals != g || g.captured || len(g.vars) != 0 {
		t.Fatalf("released global scope: same %v, captured %v, %d vars; want the same scope, uncaptured and empty",
			in.globals == g, g.captured, len(g.vars))
	}
	h := &NopHost{}
	in = AcquireInterp(h)
	if err := in.RunSource(`log(secret);`); err == nil {
		t.Fatalf("a run after Release read an old global: %q", h.Logs)
	}
	in.Release()

	allocs := testing.AllocsPerRun(100, func() {
		in := AcquireInterp(h)
		in.globals.captured = true // as a closure over the globals leaves it
		in.Release()
	})
	if allocs != 0 {
		t.Errorf("Release after a closure captured the globals: %v allocs, want 0", allocs)
	}
}

// TestReleaseDropsLargeConcatBuffer: a chain that built a string past
// interpConcatMax leaves a buffer that large; Release drops it rather
// than pin it in the pool, and keeps a small one for the next run.
func TestReleaseDropsLargeConcatBuffer(t *testing.T) {
	in := NewInterp(&NopHost{})
	if err := in.RunSource(`let s = "x" + "y"; log(s);`); err != nil {
		t.Fatal(err)
	}
	in.Release()
	if cap(in.concat) == 0 {
		t.Fatal("Release dropped a small concat buffer")
	}
	src := `
let s = "x";
for (i in "iiiiiiiiiiiiiiiii") { s = s + s; }
log(str(len(s + "!")));`
	h := &NopHost{}
	in = NewInterp(h)
	if err := in.RunSource(src); err != nil {
		t.Fatal(err)
	}
	if h.Logs[0] != "131073" {
		t.Fatalf("chain length %s, want 131073", h.Logs[0])
	}
	if cap(in.concat) <= interpConcatMax {
		t.Fatalf("concat buffer cap %d; the test needs one past %d", cap(in.concat), interpConcatMax)
	}
	in.Release()
	if in.concat != nil {
		t.Fatalf("Release kept a %d-byte concat buffer; the cap is %d", cap(in.concat), interpConcatMax)
	}
}

// TestArgStackNestedCalls: nested calls share the argument stack; deep
// and interleaved call shapes must not corrupt outer arguments.
func TestArgStackNestedCalls(t *testing.T) {
	src := `
log(join([str(len(split("a,b,c", ","))), join(split(str(12345), "3"), "-"), str(len(join([1, 2], str(len("abc")))))], "|"));`
	h := &NopHost{}
	in := AcquireInterp(h)
	if err := in.RunSource(src); err != nil {
		t.Fatal(err)
	}
	in.Release()
	if h.Logs[0] != "3|12-45|3" {
		t.Fatalf("nested arg stack: %q", h.Logs[0])
	}
}

// pairHost serves a fixed document.cookie as pairs.
type pairHost struct {
	NopHost
	pairs []CookiePair
}

func (h *pairHost) DocCookie(dst []CookiePair) []CookiePair { return append(dst, h.pairs...) }

// TestDocCookiePairs: the cookie builtins read the Host's pairs as they
// would read the string the pairs join to — the last value of a
// repeated name wins, doc_cookie is the string itself — and Release
// drops the pairs the interpreter's buffer held.
func TestDocCookiePairs(t *testing.T) {
	h := &pairHost{pairs: []CookiePair{{"a", "1"}, {"b", "x=y"}, {"a", "3"}}}
	in := AcquireInterp(h)
	if err := in.RunSource(`
log(get_cookie("a"));
log(str(get_cookie("zz") == null));
let all = get_all_cookies();
log(str(len(all)) + " " + all["a"] + " " + all["b"]);
log(doc_cookie());
log(get_cookie("b"));`); err != nil {
		t.Fatal(err)
	}
	want := []string{"3", "true", "2 3 x=y", "a=1; b=x=y; a=3", "x=y"}
	if !slices.Equal(h.Logs, want) {
		t.Fatalf("logs = %q, want %q", h.Logs, want)
	}
	buf := in.docPairs[:cap(in.docPairs)]
	in.Release()
	for _, p := range buf {
		if p != (CookiePair{}) {
			t.Fatalf("Release kept pair %+v in the document.cookie buffer", p)
		}
	}
}
