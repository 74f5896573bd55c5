package jsdsl

import (
	"cmp"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cookieguard/internal/webgen"
)

// retiredPrograms are interpreter-test programs written for what
// SiteScript no longer has: while, break, continue and return, calls of
// closures, bare blocks, unary ! and -, ||, -=, index assignment, *, /,
// %, <, <=, ordering of strings, and builtins no generated script calls.
// They stay fuzz seeds, and each must fail to parse or to run.
var retiredPrograms = []string{
	`log(1 + 2 * 3 - 4 / 2);`,
	`
log(1 < 2 && "a" != "b");
log(3 >= 4 || false);
log(!null);
log("abc" < "abd");`,
	`
let x = false && (1 / 0);
log(x);
let y = true || (1 / 0);
log(y);`,
	`
let x = 1;
{
  let x = 2;
  log(x);
}
log(x);
x = 10;
log(x);`,
	`
let i = 0;
let sum = 0;
while (true) {
  i += 1;
  if (i > 10) { break; }
  if (i % 2 == 0) { continue; }
  sum += i;
}
log(sum);`,
	`
let make_counter = fn() {
  let n = 0;
  return fn() { n += 1; return n; };
};
let c = make_counter();
c();
c();
log(c());`,
	`
let fib = fn(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
};
log(fib(12));`,
	`
let l = [10, 20];
push(l, 30);
l[0] = 11;
log(l[0] + l[2]);
let m = {"a": 1};
m["b"] = 2;
m["a"] += 5;
log(m["a"] + m["b"]);
log(len(l) + len(m));
log(has(m, "a") && !has(m, "z"));
log(join(keys(m), ","));`,
	`
log(split("GA1.1.444332364.1746838827", ".")[2]);
log(substr("hello world", 0, 5));
log(substr("abc", 1));
log(contains("abcdef", "cde"));
log(index_of("abc", "c"));
log(lower("AbC") + upper("dEf"));
log(trim("  x  "));
log(replace("a-b-c", "-", "_"));
log(starts_with("_ga", "_") && ends_with("x.js", ".js"));`,
	`
log(num("42") + 1);
log(num("nope") == null);
log(floor(3.9));
log(min(2, 5) + max(2, 5));`,
	`log(1 / 0);`,
	`log(1 % 0);`,
	`log(-"x");`,
	`log(1 < "a");`,
	`while (true) { let x = 1; }`,
	`let s = "ab"; let i = 0; while (i < 28) { s = s + s; i = i + 1; }`,
	`
log("before");
return;
log("after");`,
	`let add = fn(a, b) { return a + b; };`,
	`
let f = fn(a, b) { return b == null; };
log(f(1));`,
	`
let items = [1, 2, 3];
let total = 0;
for (x in items) { total = total + x; }
let greet = fn(name) { return "hi " + name; };
log(greet("" + total));
let m = {"a": 1};
m["b"] = 2;
log("" + len(m));
`,
	`let i = 0; i -= 1;`,
	`let f = fn() { f() + f(); }; f();`,
	`
let f = fn(a, b) { log(a == null && b == null); };
defer_run(f);`,
	`cookiestore_get_all();`,
	`cookiestore_delete("x");`,
	`fn(a) { };`,
}

// TestRetiredSyntaxRefused checks that every retired program fails to
// parse or to run.
func TestRetiredSyntaxRefused(t *testing.T) {
	for _, src := range retiredPrograms {
		if err := NewInterp(&NopHost{}).RunSource(src); err == nil {
			t.Errorf("RunSource(%q) succeeded", src)
		}
	}
}

// deepPrograms nest past maxDepth: a run of "(", and chains of "-", "&&"
// and indexes, which the parser builds in loops rather than by
// recursion.
func deepPrograms() []string {
	const n = 10_000
	return []string{
		strings.Repeat("(", n),
		"let x = 1" + strings.Repeat(" - 1", n) + ";",
		"let x = 1" + strings.Repeat(" && 1", n) + ";",
		"let x = l" + strings.Repeat("[0]", n) + ";",
	}
}

// fuzzSeeds returns every generated third-party script body of a small
// web, every string literal in interp_test.go, which holds the
// interpreter tests' programs, the retired programs and programs nested
// past maxDepth.
func fuzzSeeds(f *testing.F) []string {
	var seeds []string
	for _, svc := range webgen.Build(webgen.DefaultConfig(20)).Services {
		seeds = append(seeds, svc.Source)
	}
	file, err := goparser.ParseFile(token.NewFileSet(), "interp_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				seeds = append(seeds, s)
			}
		}
		return true
	})
	seeds = append(seeds, retiredPrograms...)
	return append(seeds, deepPrograms()...)
}

// FuzzParse checks that Parse never panics, that its pooled token
// buffer carries nothing from one parse to the next, and that programs
// share no node memory: parsing a, then b, then a again must yield deeply
// equal programs (or the same error), and the first program must still
// dump as it did before b was parsed.
func FuzzParse(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		first, firstErr := Parse(a)
		firstDump := dumpProgram(first, firstErr)
		Parse(b)
		if dumpProgram(first, firstErr) != firstDump {
			t.Fatalf("Parse(%q) program changed when %q was parsed", a, b)
		}
		again, againErr := Parse(a)
		if errText(firstErr) != errText(againErr) {
			t.Fatalf("Parse(%q) error changed after parsing %q: %v, then %v", a, b, firstErr, againErr)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("Parse(%q) program changed after parsing %q", a, b)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fuzzMaxSteps keeps each FuzzInterp input short-running.
const fuzzMaxSteps = 10_000

// FuzzInterp checks that running any source never panics and always
// terminates within the step budget: a script either finishes or fails
// with an error, having executed at most fuzzMaxSteps steps.
func FuzzInterp(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		in := NewInterp(&NopHost{})
		in.MaxSteps = fuzzMaxSteps
		in.RunSource(src)
		if in.Steps() > fuzzMaxSteps+1 {
			t.Fatalf("ran %d steps past a budget of %d", in.Steps(), fuzzMaxSteps)
		}
	})
}

// FuzzParseCookieString checks that parsing a document.cookie string
// never panics and names each pair once, that the pairs it reads join
// back into a string that parses to the same pairs (the CookiePair
// contract the Host's pairs keep), and that parsing a+";"+b is parsing a
// and then b, a repeated name keeping its first position and taking its
// last value.
func FuzzParseCookieString(f *testing.F) {
	w := webgen.Build(webgen.DefaultConfig(20))
	client := w.BuildInternet().Client()
	var jar []string
	for _, s := range w.CompleteSites() {
		resp, err := client.Get("https://" + s.Host + "/")
		if err != nil {
			f.Fatal(err)
		}
		resp.Body.Close()
		for _, sc := range resp.Header["Set-Cookie"] {
			// A Set-Cookie line, and the document.cookie the jar builds
			// from its name=value pairs.
			f.Add(sc, strings.Join(jar, "; "))
			jar = append(jar, strings.SplitN(sc, ";", 2)[0])
		}
	}
	for _, s := range []string{
		"_ga=GA1.1.1.2; _fbp=fb.0.3.4;  empty ; bad", "", ";", " ; ;", "=v", "a=", "a==b=",
		" a = 1 ;b=2", "a=1; a=2", "a=1;a=1;a", "k\t=\tv\t", "x= y ", "\xff=\xfe",
	} {
		f.Add(s, strings.Join(jar, "; "))
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		names, values := ParseCookieString(b)
		if len(names) != len(values) {
			t.Fatalf("ParseCookieString(%q) gave %d names for %d values", b, len(names), len(values))
		}
		joined := make([]string, len(names))
		for i, n := range names {
			v, ok := values[n]
			if !ok {
				t.Fatalf("ParseCookieString(%q) named %q without a value", b, n)
			}
			joined[i] = n + "=" + v
		}
		render := strings.Join(joined, "; ")
		if n2, v2 := ParseCookieString(render); !slices.Equal(n2, names) || !maps.Equal(v2, values) {
			t.Fatalf("%q parsed to %q %v; its rendering %q parsed to %q %v", b, names, values, render, n2, v2)
		}

		wantNames, wantValues := ParseCookieString(a)
		for _, n := range names {
			if _, ok := wantValues[n]; !ok {
				wantNames = append(wantNames, n)
			}
			wantValues[n] = values[n]
		}
		if n2, v2 := ParseCookieString(a + ";" + b); !slices.Equal(n2, wantNames) || !maps.Equal(v2, wantValues) {
			t.Fatalf("%q;%q parsed to %q %v; the two parses merged are %q %v", a, b, n2, v2, wantNames, wantValues)
		}
	})
}

// concatOperands are the operands FuzzConcat builds + chains from: every
// kind of value, str and rand_id with valid and invalid arguments, a
// list that contains itself, a call that grows the list l while the
// chain runs, nested chains, and undefined names.
var concatOperands = []string{
	`1`, `2.5`, `(0 - 3)`, `"a"`, `""`, `"GA1.2."`, `"."`, `null`, `true`, `false`,
	`[1, "x"]`, `{"k": 1, "j": [2]}`, `l`, `m`, `deep`, `grow`, `now_ms`,
	`str(7)`, `str(0.5)`, `str("s")`, `str(null)`, `str(l)`, `str(m)`, `str(deep)`,
	`str()`, `str(1, 2)`, `str(now_ms())`, `str(push(l, 3))`, `str(undefined_name)`,
	`rand_id(9)`, `rand_id(1)`, `rand_id(16)`, `rand_id(32)`, `rand_id(128)`, `rand_id(0)`, `rand_id(129)`,
	`rand_id("4")`, `rand_id(2, 9)`, `rand_id()`, `rand_id(len(l))`, `rand_id(1 + 1)`,
	`push(l, 3)`, `(1 + "n")`, `("p" + rand_id(2) + 3)`, `str("a" + rand_id(2))`, `(2 + 3)`,
	`undefined_name`, `grow()`,
}

// concatPreamble defines the names concatOperands use. shadow's bit 0
// defines a variable named str and bit 1 one named rand_id; a call names
// a builtin, never a variable, so neither changes a chain.
func concatPreamble(shadow uint8) string {
	src := `let r = 0;
let l = [1, 2];
let m = {"a": "b"};
let deep = [];
push(deep, deep);
let grow = fn() { push(l, 3); };
`
	if shadow&1 != 0 {
		src += "let str = \"S\";\n"
	}
	if shadow&2 != 0 {
		src += "let rand_id = fn() {};\n"
	}
	return src
}

// concatProgram turns prog into statements assigning + chains to r.
// prog is read in (control, operand) byte pairs; control mod 4 appends
// the operand to the current chain (0), or does so after a line break
// (1), or starts an "r = " (2) or "r += " (3) statement with it.
func concatProgram(prog []byte) string {
	if len(prog) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteString("r = ")
	for i := 0; i+1 < len(prog) && i < 128; i += 2 {
		op := concatOperands[int(prog[i+1])%len(concatOperands)]
		switch {
		case i == 0:
		case prog[i]%4 == 0:
			b.WriteString(" + ")
		case prog[i]%4 == 1:
			b.WriteString(" +\n")
		case prog[i]%4 == 2:
			b.WriteString(";\nr = ")
		default:
			b.WriteString(";\nr += ")
		}
		b.WriteString(op)
	}
	b.WriteString(";\n")
	return b.String()
}

// seqHost hands out identifiers from one running hex sequence, so the
// order in which a chain draws them shows in its value.
type seqHost struct {
	NopHost
	n int
}

func (h *seqHost) NowMillis() int64 { return 1746746266109 }

func (h *seqHost) AppendRandID(b []byte, n int) []byte {
	for range n {
		b = append(b, "0123456789abcdef"[h.n%16])
		h.n++
	}
	return b
}

// refPlus is + as the interpreter once folded it, one + at a time: each
// + that involves a string renders both sides, charges its result's
// length and makes a new string.
func refPlus(in *Interp, l, r Value, line int) (Value, error) {
	if l.kind == KindNumber && r.kind == KindNumber {
		return Num(l.num + r.num), nil
	}
	if l.kind == KindString || r.kind == KindString {
		ls, lerr := in.str(l)
		rs, rerr := in.str(r)
		if err := cmp.Or(lerr, rerr, in.charge(len(ls)+len(rs))); err != nil {
			err.(*RuntimeError).Line = line
			return Value{}, err
		}
		return Str(ls + rs), nil
	}
	return Value{}, &RuntimeError{Line: line, Msg: "invalid operands for +"}
}

// refEval evaluates e, folding any + chain at its top pairwise with
// refPlus. Other expressions, call arguments among them, go to the
// interpreter.
func refEval(in *Interp, e Expr) (Value, error) {
	x, ok := e.(*BinaryExpr)
	if !ok || x.Op != "+" {
		return in.eval(e, in.globals)
	}
	l, err := refEval(in, x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := refEval(in, x.R)
	if err != nil {
		return Value{}, err
	}
	return refPlus(in, l, r, x.Line)
}

// refRun runs concatProgram's statements as the interpreter once did.
func refRun(in *Interp, prog *Program) error {
	for _, s := range prog.Stmts {
		st := s.(*AssignStmt)
		if err := in.step(st.Line); err != nil {
			return err
		}
		v, err := refEval(in, st.Value)
		if err != nil {
			return err
		}
		if st.Op == "+=" {
			old, _ := in.globals.Lookup("r")
			if v, err = refPlus(in, old, v, st.Line); err != nil {
				return err
			}
		}
		in.globals.Set("r", v)
	}
	return nil
}

// FuzzConcat checks that + chains and += built on the interpreter's
// concat buffer give what folding them one + at a time gave: the same
// value, error message and line, bytes charged against maxRunBytes,
// steps, identifiers drawn, and side effects on the list l. slack is the
// budget left when the chains start, so small values run them into
// maxRunBytes at every point.
func FuzzConcat(f *testing.F) {
	seed := func(shadow uint8, slack uint16, ops ...string) {
		var prog []byte
		for _, op := range ops {
			ctl := byte(0)
			if strings.HasPrefix(op, "=") || strings.HasPrefix(op, "+=") || strings.HasPrefix(op, "\n") {
				ctl = map[byte]byte{'\n': 1, '=': 2, '+': 3}[op[0]]
				op = strings.TrimLeft(op, "+=\n")
			}
			i := slices.Index(concatOperands, op)
			if i < 0 {
				f.Fatalf("seed operand %q is not in concatOperands", op)
			}
			prog = append(prog, ctl, byte(i))
		}
		f.Add(shadow, prog, slack)
	}
	const roomy = 1 << 15
	seed(0, roomy, `"GA1.2."`, `rand_id(9)`, `"."`, `str(now_ms())`)
	seed(0, roomy, `rand_id(32)`, `"."`, `rand_id(16)`)
	seed(0, roomy, `1`, `2.5`, `"a"`, `(0 - 3)`, `null`, `true`, `str(7)`)
	seed(0, roomy, `l`, `str(push(l, 3))`, `=l`, `push(l, 3)`, `m`, `str(m)`)
	seed(0, roomy, `null`, `str(l)`, `=true`, `rand_id(9)`, `+="a"`, `+=1`, `+=l`, `+=str(deep)`)
	seed(0, roomy, `"a"`, `deep`, `=deep`, `"a"`, `=str(deep)`)
	seed(0, roomy, `"a"`, `str()`, `=rand_id(0)`, `=str(1, 2)`, `=rand_id(129)`, `=rand_id("4")`)
	seed(0, roomy, `"a"`, `rand_id(2, 9)`, "\n"+`str(undefined_name)`, `=undefined_name`)
	seed(0, roomy, `"a"`, "\n"+`null`, "\n"+`[1, "x"]`, "\n"+`now_ms`, `=[1, "x"]`, `{"k": 1, "j": [2]}`)
	seed(0, roomy, `(1 + "n")`, `("p" + rand_id(2) + 3)`, `str("a" + rand_id(2))`, `rand_id(1 + 1)`, `(2 + 3)`)
	seed(0, roomy, `rand_id(len(l))`, `str(push(l, 3))`, `rand_id(len(l))`, `grow`, `grow()`)
	seed(1, roomy, `"a"`, `str(7)`, `rand_id(9)`, `=str(l)`, `"."`)
	seed(2, roomy, `"a"`, `rand_id(9)`, `=rand_id(9)`, `1`, `str(7)`)
	seed(3, roomy, `rand_id(1)`, `str(0.5)`, `+=rand_id(32)`)
	for _, slack := range []uint16{0, 1, 5, 9, 12, 20, 40} {
		seed(0, slack, `"GA1.2."`, `rand_id(9)`, `"."`, `str(now_ms())`, `+=str(l)`, `+="a"`)
		seed(0, slack, `l`, `"a"`, `str(m)`, `m`, `+=l`)
	}
	f.Fuzz(func(t *testing.T, shadow uint8, ops []byte, slack uint16) {
		src := concatProgram(ops)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("concatProgram built an unparsable program: %v\n%s", err, src)
		}
		run := func(chains func(in *Interp) error) (in *Interp, h *seqHost, err error) {
			h = &seqHost{}
			in = NewInterp(h)
			if err := in.RunSource(concatPreamble(shadow)); err != nil {
				t.Fatalf("preamble: %v", err)
			}
			in.bytes = maxRunBytes - int(slack)
			return in, h, chains(in)
		}
		got, gotHost, gotErr := run(func(in *Interp) error { return in.Run(prog) })
		want, wantHost, wantErr := run(func(in *Interp) error { return refRun(in, prog) })
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("error %q, want %q\n%s", errText(gotErr), errText(wantErr), src)
		}
		gotR, _ := got.globals.Lookup("r")
		wantR, _ := want.globals.Lookup("r")
		if gotR.kind != wantR.kind || ToString(gotR) != ToString(wantR) {
			t.Fatalf("r = %q (kind %d), want %q (kind %d)\n%s", ToString(gotR), gotR.kind, ToString(wantR), wantR.kind, src)
		}
		gotL, _ := got.globals.Lookup("l")
		wantL, _ := want.globals.Lookup("l")
		if ToString(gotL) != ToString(wantL) {
			t.Fatalf("l = %s, want %s\n%s", ToString(gotL), ToString(wantL), src)
		}
		if got.bytes != want.bytes || got.steps != want.steps || gotHost.n != wantHost.n {
			t.Fatalf("charged %d bytes, ran %d steps, drew %d hex digits; want %d, %d, %d\n%s",
				got.bytes, got.steps, gotHost.n, want.bytes, want.steps, wantHost.n, src)
		}
		if len(got.concat) != 0 {
			t.Fatalf("%d bytes left on the concat stack\n%s", len(got.concat), src)
		}
	})
}
