package jsdsl

import (
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`let x = 42;`)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "let"}, {TokIdent, "x"}, {TokPunct, "="},
		{TokNumber, "42"}, {TokPunct, ";"}, {TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("tok %d = (%v,%q), want (%v,%q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := Lex(`"hello" 'single' "esc\"q" "tab\tend"`)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"hello", "single", `esc"q`, "tab\tend"}
	for i, w := range wants {
		if toks[i].Kind != TokString || toks[i].Text != w {
			t.Errorf("tok %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexStringErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "\"newline\n\"", `"esc\`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

// TestLexStringLiteralTable covers the two ways a literal is lexed: as a
// substring of the source when it has no escape, and through a builder
// when it has one. The token after each literal checks where lexing
// resumed.
func TestLexStringLiteralTable(t *testing.T) {
	for _, tc := range []struct {
		name, src, want, err string
	}{
		{name: "plain double", src: `"abc";`, want: "abc"},
		{name: "plain single", src: `'abc';`, want: "abc"},
		{name: "empty double", src: `"";`, want: ""},
		{name: "empty single", src: `'';`, want: ""},
		{name: "other quote inside double", src: `"it's";`, want: "it's"},
		{name: "other quote inside single", src: `'say "hi"';`, want: `say "hi"`},
		{name: "escape at start", src: `"\nabc";`, want: "\nabc"},
		{name: "escape in middle", src: `"a\tb";`, want: "a\tb"},
		{name: "escape at end", src: `"abc\\";`, want: `abc\`},
		{name: "escaped own quote double", src: `"a\"b";`, want: `a"b`},
		{name: "escaped own quote single", src: `'a\'b';`, want: "a'b"},
		{name: "only an escape", src: `'\'';`, want: "'"},
		{name: "unknown escape keeps the byte", src: `"\q\/";`, want: "q/"},
		{name: "every escape", src: `"\n\t\\\"\'";`, want: "\n\t\\\"'"},
		{name: "newline inside", src: "\"ab\ncd\";", err: "jsdsl: line 1: unterminated string"},
		{name: "newline after an escape", src: "\"a\\tb\ncd\";", err: "jsdsl: line 1: unterminated string"},
		{name: "unterminated", src: `"abc`, err: "jsdsl: line 1: unterminated string"},
		{name: "unterminated after an escape", src: `"a\tbc`, err: "jsdsl: line 1: unterminated string"},
		{name: "unterminated escaped quote", src: `'abc\'`, err: "jsdsl: line 1: unterminated string"},
		{name: "unterminated escape", src: `"abc\`, err: "jsdsl: line 1: unterminated escape"},
		{name: "unterminated on a later line", src: "x;\n'abc", err: "jsdsl: line 2: unterminated string"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			toks, err := Lex(tc.src)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("Lex(%q) error = %v, want %q", tc.src, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(toks) != 3 || toks[0].Kind != TokString || toks[0].Text != tc.want || !toks[1].is(";") || toks[2].Kind != TokEOF {
				t.Fatalf("Lex(%q) = %v, want [%q ; EOF]", tc.src, toks, tc.want)
			}
		})
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
let a = 1; /* block
comment */ let b = 2;`
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			idents = append(idents, tok.Text)
		}
	}
	if len(idents) != 2 || idents[0] != "a" || idents[1] != "b" {
		t.Fatalf("idents = %v", idents)
	}
}

func TestLexTwoBytePuncts(t *testing.T) {
	toks, err := Lex(`a == b != c >= d && e += f`)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokPunct {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"==", "!=", ">=", "&&", "+="}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("a\nb\n\nc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[2].Line != 4 {
		t.Fatalf("lines = %d %d %d", toks[0].Line, toks[1].Line, toks[2].Line)
	}
}

func TestLexUnexpectedChar(t *testing.T) {
	_, err := Lex("let a = #;")
	if err == nil {
		t.Fatal("expected error for #")
	}
	se, ok := err.(*SyntaxError)
	if !ok || se.Line != 1 {
		t.Fatalf("err = %v", err)
	}
}

func TestLexNumbersAndFloats(t *testing.T) {
	toks, err := Lex("1 2.5 1746838827")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "1" || toks[1].Text != "2.5" || toks[2].Text != "1746838827" {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexEmptyAndWhitespace(t *testing.T) {
	for _, src := range []string{"", "   ", "\n\n\t  ", "// only a comment"} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) != 1 || kinds(toks)[0] != TokEOF {
			t.Fatalf("Lex(%q) = %v", src, toks)
		}
	}
}
