package jsdsl

import (
	"errors"
	"strings"
	"testing"
)

func TestParseLetAndExpr(t *testing.T) {
	prog, err := Parse(`let x = 1 + 2 > 3; x = x - 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(prog.Stmts))
	}
	let, ok := prog.Stmts[0].(*LetStmt)
	if !ok || let.Name != "x" {
		t.Fatalf("stmt 0 = %T", prog.Stmts[0])
	}
	// precedence: (1 + 2) > 3
	bin, ok := let.Init.(*BinaryExpr)
	if !ok || bin.Op != ">" {
		t.Fatalf("init = %#v", let.Init)
	}
	if inner, ok := bin.L.(*BinaryExpr); !ok || inner.Op != "+" {
		t.Fatalf("precedence wrong: %#v", bin.L)
	}
}

func TestParseIfElseChain(t *testing.T) {
	src := `
if (a == 1) { log("one"); }
else if (a == 2) { log("two"); }
else { log("other"); }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifst := prog.Stmts[0].(*IfStmt)
	if ifst.Else == nil {
		t.Fatal("missing else")
	}
	elseIf, ok := ifst.Else.(*IfStmt)
	if !ok || elseIf.Else == nil {
		t.Fatalf("else-if = %T", ifst.Else)
	}
}

// TestParseWhileForIn: for-in is SiteScript's only loop; a while loop
// does not parse.
func TestParseWhileForIn(t *testing.T) {
	prog, err := Parse(`
let i = 0;
for (k in m) { log(k); }`)
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := prog.Stmts[1].(*ForInStmt)
	if !ok || fi.Var != "k" {
		t.Fatalf("stmt 1 = %T", prog.Stmts[1])
	}
	if _, err := Parse(`while (i > 10) { i += 1; }`); err == nil {
		t.Fatal("a while loop parsed")
	}
}

func TestParseLiterals(t *testing.T) {
	prog, err := Parse(`let v = [1, "two", true, null, {"a": 1, "b": [2]}];`)
	if err != nil {
		t.Fatal(err)
	}
	lst := prog.Stmts[0].(*LetStmt).Init.(*ListLit)
	if len(lst.Elems) != 5 {
		t.Fatalf("list len = %d", len(lst.Elems))
	}
	m := lst.Elems[4].(*MapLit)
	if len(m.Keys) != 2 {
		t.Fatalf("map keys = %d", len(m.Keys))
	}
}

func TestParseFunctionsAndCalls(t *testing.T) {
	prog, err := Parse(`
let f = fn() { log(1 + 2); };
let r = split(1, 2);
on_click(fn() { send("https://t.example/px", {"e": "click"}); });`)
	if err != nil {
		t.Fatal(err)
	}
	if fl := prog.Stmts[0].(*LetStmt).Init.(*FuncLit); fl.Params != nil {
		t.Fatalf("params = %v", fl.Params)
	}
	// A closure takes no parameters.
	for _, src := range []string{`let f = fn(a) { };`, `let f = fn(a, b) { };`, `let f = fn(,) { };`} {
		var se *SyntaxError
		if _, err := Parse(src); !errors.As(err, &se) {
			t.Errorf("Parse(%q) = %v, want a *SyntaxError", src, err)
		}
	}
	call := prog.Stmts[1].(*LetStmt).Init.(*CallExpr)
	if len(call.Args) != 2 {
		t.Fatalf("args = %d", len(call.Args))
	}
	// Only a name is called: a call's value, an index or a function
	// literal is not.
	for _, src := range []string{`f(1)(2);`, `l[0]();`, `(fn() {})();`} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error", src)
		}
	}
}

func TestParseIndexChain(t *testing.T) {
	prog, err := Parse(`let x = split(g, ".")[2];`)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := prog.Stmts[0].(*LetStmt).Init.(*IndexExpr)
	if !ok {
		t.Fatalf("init = %T", prog.Stmts[0].(*LetStmt).Init)
	}
	if _, ok := idx.X.(*CallExpr); !ok {
		t.Fatalf("index base = %T", idx.X)
	}
}

// TestParseIndexAssignment: only a variable is assigned to, with = or
// +=; an index is not.
func TestParseIndexAssignment(t *testing.T) {
	prog, err := Parse(`m = 1; l += 2;`)
	if err != nil {
		t.Fatal(err)
	}
	a0 := prog.Stmts[0].(*AssignStmt)
	if _, ok := a0.Target.(*Ident); !ok || a0.Op != "=" {
		t.Fatalf("stmt 0 = %#v", a0)
	}
	a1 := prog.Stmts[1].(*AssignStmt)
	if a1.Op != "+=" {
		t.Fatalf("stmt 1 op = %q", a1.Op)
	}
	for _, src := range []string{`m["k"] = 1;`, `l[0] += 2;`} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "assignment target") {
			t.Errorf("Parse(%q) = %v, want an invalid-target error", src, err)
		}
	}
}

// TestParseBreakContinueReturn: while, break, continue and return are
// not SiteScript; a loop that uses them does not parse.
func TestParseBreakContinueReturn(t *testing.T) {
	_, err := Parse(`
while (true) {
  if (x > 3) { break; }
  if (x == 2) { continue; }
  return x;
}
return;`)
	if err == nil {
		t.Fatal("a while loop with break, continue and return parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`let = 1;`, "identifier"},
		{`let x 1;`, `expected "="`},
		{`let x = 1`, `expected ";"`},
		{`if x { }`, `expected "("`},
		{`1 = 2;`, "assignment target"},
		{`if (a) { let a = 1;`, "unterminated block"},
		{`{ let a = 1; }`, "unexpected token let"},
		{`let x = !a;`, "unexpected"},
		{`let x = -1;`, "unexpected"},
		{`let x = a || b;`, "unexpected"},
		{`x -= 1;`, "unexpected"},
		{`let x = 2 * 3;`, "unexpected"},
		{`let x = 1 < 2;`, "unexpected"},
		{`let l = [1, 2;`, `expected "]"`},
		{`let m = {"a" 1};`, `expected ":"`},
		{`f(1, 2;`, `expected ")"`},
		{`let f = fn(1) {};`, "parameter"},
		{`;`, "unexpected"},
		{`for (x of l) {}`, `expected "in"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) err = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("let;")
}

func TestParseRealisticTrackerScript(t *testing.T) {
	// The shape of the LinkedIn insight-tag case study (§5.4).
	src := `
let g = get_cookie("_ga");
if (g != null) {
  let parts = split(g, ".");
  if (len(parts) >= 4) {
    let cid = parts[2];
    let ts = parts[3];
    send("https://px.ads.linkedin.example/attribution_trigger", {
      "pid": "621340",
      "time": str(now_ms()),
      "url": page_url(),
      "_ga": b64(cid) + "." + b64(ts)
    });
  }
}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

// TestParseDepthBound: Parse refuses, with a *SyntaxError, a program that
// nests deeper than maxDepth, however the depth is built, and the
// interpreter runs each shape just inside the bound. Past it, the parser
// or the interpreter would recurse until the Go stack overflowed: a
// million "(" did so in the parser, a few million "- 1" in the
// interpreter.
func TestParseDepthBound(t *testing.T) {
	nest := func(k int, open, mid, close string) string {
		return strings.Repeat(open, k) + mid + strings.Repeat(close, k)
	}
	for _, c := range []struct {
		name string
		src  func(k int) string
		fits int // the largest k inside the bound
	}{
		// An expression statement over a chain of k operators or
		// indexes is k+2 nodes deep.
		{"minus chain", func(k int) string { return "1" + strings.Repeat(" - 1", k) + ";" }, maxDepth - 2},
		{"and chain", func(k int) string { return "1" + strings.Repeat(" && 1", k) + ";" }, maxDepth - 2},
		{"index chain", func(k int) string { return "let l = []; push(l, l); l" + strings.Repeat("[0]", k) + ";" }, maxDepth - 2},
		// Each pair of parentheses is a level, though it adds no node.
		{"parentheses", func(k int) string { return nest(k, "(", "1", ")") + ";" }, maxDepth - 2},
		{"lists", func(k int) string { return nest(k, "[", "", "]") + ";" }, maxDepth - 1},
		{"ifs", func(k int) string { return nest(k, "if (1) { ", "", "} ") }, maxDepth / 2},
		{"else ifs", func(k int) string { return "if (0) {} " + strings.Repeat("else if (0) {} ", k-1) + "else {}" }, maxDepth - 1},
		// Four nodes a level; NopHost runs the 32 nested callbacks in
		// place, as deep as maxCallDepth allows.
		{"callbacks", func(k int) string { return nest(k, "defer_run(fn() { ", "", "}); ") }, maxDepth / 4},
	} {
		if err := NewInterp(&NopHost{}).RunSource(c.src(c.fits)); err != nil {
			t.Errorf("%s %d deep: %v", c.name, c.fits, err)
		}
		_, err := Parse(c.src(c.fits + 1))
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nested more than") {
			t.Errorf("%s %d deep: Parse = %v, want the nesting SyntaxError", c.name, c.fits+1, err)
		}
	}
	for _, src := range []string{strings.Repeat("(", 1<<20), "let x = 1" + strings.Repeat(" - 1", 100_000) + ";"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse of a %d-byte program nested past maxDepth succeeded", len(src))
		}
	}
	// The huge token buffers went back to no pool: every later parse
	// would clear them.
	buf := tokenBufs.Get().(*[]Token)
	if cap(*buf) > tokenBufMax {
		t.Errorf("the token pool kept a buffer for %d tokens", cap(*buf))
	}
	tokenBufs.Put(buf)
}
