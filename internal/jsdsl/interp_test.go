package jsdsl

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// evalHost runs src against a NopHost and returns it for log inspection.
func evalHost(t *testing.T, src string) *NopHost {
	t.Helper()
	h := &NopHost{}
	in := NewInterp(h)
	if err := in.RunSource(src); err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	return h
}

func lastLog(t *testing.T, h *NopHost) string {
	t.Helper()
	if len(h.Logs) == 0 {
		t.Fatal("no logs")
	}
	return h.Logs[len(h.Logs)-1]
}

func TestArithmeticAndPrecedence(t *testing.T) {
	// + and - share a level and associate to the left; both bind
	// tighter than comparisons, which bind tighter than &&.
	h := evalHost(t, `
log(10 - 2 + 3);
log(1 + 2 == 3 && 5 - 1 > 3);`)
	if h.Logs[0] != "11" || h.Logs[1] != "true" {
		t.Fatalf("logs = %v", h.Logs)
	}
}

func TestStringConcat(t *testing.T) {
	h := evalHost(t, `log("fb." + 0 + "." + 1746746266109 + "." + "868308");`)
	if got := lastLog(t, h); got != "fb.0.1746746266109.868308" {
		t.Fatalf("log = %q", got)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	h := evalHost(t, `
log(2 > 1 && "a" != "b");
log(3 >= 4 && true);
log(null == null);
log(4 >= 4 && 1 != "1");`)
	want := []string{"true", "false", "true", "true"}
	for i, w := range want {
		if h.Logs[i] != w {
			t.Fatalf("log %d = %q, want %q", i, h.Logs[i], w)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right side would error (an undefined name) if evaluated.
	h := evalHost(t, `
let x = false && undefined_name;
log(x);
let y = 0 && undefined_name;
log(y);`)
	if h.Logs[0] != "false" || h.Logs[1] != "0" {
		t.Fatalf("logs = %v", h.Logs)
	}
}

func TestVariablesAndScopes(t *testing.T) {
	h := evalHost(t, `
let x = 1;
if (true) {
  let x = 2;
  log(x);
}
log(x);
x = 10;
log(x);`)
	if h.Logs[0] != "2" || h.Logs[1] != "1" || h.Logs[2] != "10" {
		t.Fatalf("logs = %v", h.Logs)
	}
}

func TestForInListMapString(t *testing.T) {
	h := evalHost(t, `
let total = 0;
for (v in [1, 2, 3]) { total += v; }
log(total);
let ks = "";
for (k in {"b": 1, "a": 2}) { ks = ks + k; }
log(ks);
let cnt = 0;
for (ch in "hey") { cnt += 1; }
log(cnt);`)
	if h.Logs[0] != "6" {
		t.Fatalf("list sum = %q", h.Logs[0])
	}
	if h.Logs[1] != "ab" { // map keys iterate sorted: deterministic
		t.Fatalf("map keys = %q", h.Logs[1])
	}
	if h.Logs[2] != "3" {
		t.Fatalf("string len = %q", h.Logs[2])
	}
}

// clickHost keeps the click handlers a script registers, for the test to
// run once the script has finished, as the browser does.
type clickHost struct {
	NopHost
	clicks []func()
}

func (h *clickHost) OnClick(cb func()) { h.clicks = append(h.clicks, cb) }

func TestClosuresCaptureEnvironment(t *testing.T) {
	h := &clickHost{}
	in := NewInterp(h)
	if err := in.RunSource(`
let n = 0;
for (i in [1, 2]) {
  let x = i + 10;
  on_click(fn() { n += x; log(str(n)); });
}
let bump = fn() { n += 1; };
defer_run(bump);
defer_run(bump);`); err != nil {
		t.Fatal(err)
	}
	// The deferred callbacks ran in place; the click handlers run after
	// the loop's scopes have gone, and still see their own x.
	for _, cb := range h.clicks {
		cb()
	}
	if !reflect.DeepEqual(h.Logs, []string{"13", "25"}) {
		t.Fatalf("logs = %v, want [13 25]", h.Logs)
	}
}

// TestRecursion: only the host runs a closure, and a callback that
// registers itself with a host that runs it in place (NopHost's
// DeferRun) stops at maxCallDepth with a RuntimeError, under the default
// step budget; a script cannot call a closure itself.
func TestRecursion(t *testing.T) {
	for _, c := range []struct{ src, wantSub string }{
		{`let f = fn() { defer_run(f); }; defer_run(f);`, "callbacks nested too deeply"},
		{`let f = fn() { on_click(f); defer_run(f); }; defer_run(f);`, "callbacks nested too deeply"},
		{`let f = fn() { f() + f(); }; f();`, "undefined function f"},
		{`let f = fn() { f(); }; defer_run(f);`, "undefined function f"},
	} {
		in := NewInterp(&NopHost{})
		err := in.RunSource(c.src)
		var re *RuntimeError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, c.wantSub) {
			t.Errorf("RunSource(%q) = %v, want a RuntimeError %q", c.src, err, c.wantSub)
		}
		if in.calls != 0 {
			t.Errorf("RunSource(%q) left %d callback runs open", c.src, in.calls)
		}
	}
}

func TestListAndMapOperations(t *testing.T) {
	h := evalHost(t, `
let l = [10, 20];
push(l, 30);
log(l[0] + l[2]);
let m = {"a": 6, "b": 2};
log(m["a"] + m["b"]);
log(len(l) + len(m));
log(m["a"] != null && m["z"] == null);
log(join(l, ","));`)
	want := []string{"40", "8", "5", "true", "10,20,30"}
	for i, w := range want {
		if h.Logs[i] != w {
			t.Fatalf("log %d = %q, want %q", i, h.Logs[i], w)
		}
	}
}

func TestIndexOutOfRangeYieldsNull(t *testing.T) {
	h := evalHost(t, `
let l = [1];
log(l[5] == null);
log("ab"[9] == null);`)
	if h.Logs[0] != "true" || h.Logs[1] != "true" {
		t.Fatalf("logs = %v", h.Logs)
	}
}

func TestStringBuiltins(t *testing.T) {
	h := evalHost(t, `
log(split("GA1.1.444332364.1746838827", ".")[2]);
log(join(split("a-b-c", "-"), "_"));
log(str(len("hello")) + str(1.5));
log(starts_with("_ga", "_"));
log(starts_with("x.js", "_"));`)
	want := []string{"444332364", "a_b_c", "51.5", "true", "false"}
	for i, w := range want {
		if h.Logs[i] != w {
			t.Fatalf("log %d = %q, want %q", i, h.Logs[i], w)
		}
	}
}

func TestEncodingBuiltins(t *testing.T) {
	h := evalHost(t, `
log(b64("444332364"));
log(md5("hello"));
log(sha1("hello"));`)
	if h.Logs[0] != "NDQ0MzMyMzY0" {
		t.Fatalf("b64 = %q", h.Logs[0])
	}
	if h.Logs[1] != "5d41402abc4b2a76b9719d911017c592" {
		t.Fatalf("md5 = %q", h.Logs[1])
	}
	if h.Logs[2] != "aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d" {
		t.Fatalf("sha1 = %q", h.Logs[2])
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`log(undefined_var);`, "undefined variable"},
		{`undeclared = 5;`, "undeclared"},
		{`log("a" - 1);`, "arithmetic"},
		{`let n = null; log(n[0]);`, "cannot index null"},
		{`let x = 5; x();`, "undefined function x"},
		{`let f = fn() {}; f();`, "undefined function f"},
		{`log(len);`, "undefined variable len"},
		{`log(1 > "a");`, "comparison"},
		{`log("b" >= "a");`, "comparison"},
		{`let m = {}; log(m[0]);`, "map key"},
		{`split("a");`, "split"},
		{`join();`, "join"},
		{`push();`, "push"},
		{`let l = []; push(l, l); log(str(l));`, "nested too deeply"},
		{`let l = []; push(l, l); log("x" + l);`, "nested too deeply"},
	}
	for _, c := range cases {
		in := NewInterp(&NopHost{})
		err := in.RunSource(c.src)
		if err == nil {
			t.Errorf("RunSource(%q) succeeded, want error %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("RunSource(%q) err = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

// TestStepBudget: a script stops with a RuntimeError once it has run
// MaxSteps steps, and the count never passes MaxSteps+1, even when the
// steps are a host's callbacks, whose failures the host cannot see: a
// callback that defers itself twice would otherwise run on past the
// budget (the second call of each pair after the first had failed).
// That script's first error is the call depth's, met on its way down.
func TestStepBudget(t *testing.T) {
	for _, c := range []struct {
		src, wantSub string
		maxSteps     int
	}{
		{`let l = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
for (a in l) { for (b in l) { for (c in l) { let x = 1; } } }`, "step budget", 1000},
		{`let f = fn() { defer_run(f); defer_run(f); }; defer_run(f);`, "nested too deeply", 10_000},
		{`let f = fn() { defer_run(f); defer_run(f); }; defer_run(f);`, "nested too deeply", DefaultMaxSteps},
	} {
		in := NewInterp(&NopHost{})
		in.MaxSteps = c.maxSteps
		err := in.RunSource(c.src)
		var re *RuntimeError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, c.wantSub) {
			t.Errorf("RunSource(%q) with %d steps = %v, want a RuntimeError %q", c.src, c.maxSteps, err, c.wantSub)
		}
		if in.Steps() != c.maxSteps+1 {
			t.Errorf("RunSource(%q) ran %d steps against a budget of %d", c.src, in.Steps(), c.maxSteps)
		}
	}
}

// TestByteBudget: a loop that doubles a string takes few steps but
// would allocate without bound (the 28th doubling alone is 512 MiB).
// The byte budget fails it with a RuntimeError after allocating about
// maxRunBytes.
func TestByteBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewInterp(&NopHost{}).RunSource(`let s = "ab";
for (i in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28]) {
  s = s + s;
}`)
	runtime.ReadMemStats(&after)
	var re *RuntimeError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "memory budget") {
		t.Fatalf("err = %v, want the memory-budget RuntimeError", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*maxRunBytes {
		t.Fatalf("allocated %d bytes, want at most %d", alloc, 4*maxRunBytes)
	}
}

// TestBreakOutsideLoopIsError: break is not SiteScript, so a stray one is
// an undefined name.
func TestBreakOutsideLoopIsError(t *testing.T) {
	in := NewInterp(&NopHost{})
	if err := in.RunSource(`break;`); err == nil {
		t.Fatal("break at top level should error")
	}
}

func TestCallClosureFromGo(t *testing.T) {
	h := &NopHost{}
	in := NewInterp(h)
	if err := in.RunSource(`let n = 2; let add = fn() { log(str(n + 3)); };`); err != nil {
		t.Fatal(err)
	}
	v, ok := in.globals.Lookup("add")
	if !ok {
		t.Fatal("add not defined")
	}
	c, ok := v.AsClosure()
	if !ok {
		t.Fatal("add is not a closure")
	}
	if err := in.callClosure(c); err != nil {
		t.Fatal(err)
	}
	if got := lastLog(t, h); got != "5" {
		t.Fatalf("log = %q", got)
	}
}

func TestParseCookieString(t *testing.T) {
	names, vals := ParseCookieString("_ga=GA1.1.1.2; _fbp=fb.0.3.4;  empty ; bad")
	if len(names) != 2 || names[0] != "_ga" || names[1] != "_fbp" {
		t.Fatalf("names = %v", names)
	}
	if vals["_ga"] != "GA1.1.1.2" || vals["_fbp"] != "fb.0.3.4" {
		t.Fatalf("vals = %v", vals)
	}
	names, _ = ParseCookieString("")
	if len(names) != 0 {
		t.Fatalf("empty parse = %v", names)
	}
}

func BenchmarkInterpTrackerScript(b *testing.B) {
	src := `
let g = get_cookie("_ga");
let all = get_all_cookies();
let ids = [];
for (k in all) {
  let v = all[k];
  if (len(v) >= 8) { push(ids, b64(v)); }
}
send("https://collect.example/px", {"ids": join(ids, "*")});`
	prog := MustParse(src)
	h := &NopHost{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInterp(h)
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseScript(b *testing.B) {
	src := `
let g = get_cookie("_ga");
if (g != null) {
  let parts = split(g, ".");
  send("https://px.example/t", {"ga": b64(parts[2])});
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSharedProgramReentrant is the parse-once/run-many contract: one
// parsed Program executed by many concurrent interpreters (as the
// artifact cache does across crawl workers) must behave exactly like
// per-goroutine parses — same logs, same step counts, no cross-talk.
func TestSharedProgramReentrant(t *testing.T) {
	src := `
let items = [1, 2, 3];
let total = 0;
for (x in items) { total = total + x; }
let greet = fn() { log("hi " + total); };
defer_run(greet);
let m = {"a": 1, "b": 2};
log("" + len(m));
`
	shared := MustParse(src)

	// Reference run, private parse.
	refHost := &NopHost{}
	refInterp := NewInterp(refHost)
	if err := refInterp.Run(MustParse(src)); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	hosts := make([]*NopHost, goroutines)
	steps := make([]int, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hosts[g] = &NopHost{}
			in := NewInterp(hosts[g])
			errs[g] = in.Run(shared)
			steps[g] = in.Steps()
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if steps[g] != refInterp.Steps() {
			t.Fatalf("goroutine %d: steps = %d, want %d (shared AST must not affect execution)",
				g, steps[g], refInterp.Steps())
		}
		if !reflect.DeepEqual(hosts[g].Logs, refHost.Logs) {
			t.Fatalf("goroutine %d: logs = %v, want %v", g, hosts[g].Logs, refHost.Logs)
		}
	}
}

// TestBuildAssignment pins set_cookie's rendering: the assignment bytes
// (attributes in sorted key order, names matched case-insensitively,
// unknown ones dropped, Secure only when true) and the bytes charged to
// the run's budget, which include each rendered list or map value.
func TestBuildAssignment(t *testing.T) {
	attrs := func(kv ...any) *Map {
		m := NewMap()
		for i := 0; i < len(kv); i += 2 {
			m.Entries[kv[i].(string)] = kv[i+1].(Value)
		}
		return m
	}
	list := ListVal(&List{Elems: []Value{Num(1), Str("x")}})
	for _, tc := range []struct {
		name  string
		attrs *Map
		want  string
		// rendered counts the bytes of list and map values, which are
		// charged when rendered, before the assignment is.
		rendered int
	}{
		{name: "no attributes", want: "id=v"},
		{name: "empty attributes", attrs: attrs(), want: "id=v"},
		{
			name: "every attribute",
			attrs: attrs("path", Str("/"), "max_age", Num(3600), "domain", Str(".x.example"), "secure", BoolVal(true),
				"samesite", Str("Lax"), "expires", Str("Thu, 01 Jan 2026 00:00:00 GMT"), "bogus", Str("zzz")),
			want: "id=v; Domain=.x.example; Expires=Thu, 01 Jan 2026 00:00:00 GMT; Max-Age=3600; Path=/; SameSite=Lax; Secure",
		},
		{name: "upper-case names", attrs: attrs("MAX-AGE", Num(0), "Path", Str("/a")), want: "id=v; Max-Age=0; Path=/a"},
		{name: "secure false", attrs: attrs("secure", BoolVal(false), "path", Str("/")), want: "id=v; Path=/"},
		{name: "list value", attrs: attrs("path", list), want: "id=v; Path=" + ToString(list), rendered: len(ToString(list))},
		{name: "list value of a dropped attribute", attrs: attrs("bogus", list), want: "id=v", rendered: len(ToString(list))},
		{
			name:  "number values",
			attrs: attrs("max_age", Num(31536000), "expires", Num(-1.5), "path", Num(1e21), "domain", Num(-7)),
			want:  "id=v; Domain=-7; Expires=-1.5; Max-Age=31536000; Path=" + ToString(Num(1e21)),
		},
		{name: "secure string, null path", attrs: attrs("secure", Str("true"), "path", Value{}), want: "id=v; Path=null; Secure"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInterp(&NopHost{})
			defer in.Release()
			got, err := in.buildAssignment("id", "v", tc.attrs)
			if err != nil {
				t.Fatal(err)
			}
			if wantBytes := tc.rendered + len(tc.want); got != tc.want || in.bytes != wantBytes {
				t.Fatalf("buildAssignment = %q charging %d, want %q charging %d", got, in.bytes, tc.want, wantBytes)
			}
		})
	}
	in := NewInterp(&NopHost{})
	defer in.Release()
	scalarAttrs := attrs("path", Str("/"), "samesite", Str("Lax"), "domain", Str(".x.example"), "max_age", Num(31536000))
	if allocs := testing.AllocsPerRun(100, func() { in.buildAssignment("id", "v", scalarAttrs) }); allocs > 1 {
		t.Fatalf("buildAssignment with string and number attributes allocates %.0f times; want only the string (1)", allocs)
	}
	in.bytes = maxRunBytes - 3
	if _, err := in.buildAssignment("id", "v", attrs("path", Str("/"))); err == nil {
		t.Fatal("an assignment past the byte budget did not fail")
	}
}
