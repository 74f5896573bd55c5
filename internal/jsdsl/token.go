// Package jsdsl implements SiteScript, the small imperative scripting
// language that plays JavaScript's role in the reproduction.
//
// Every script on the synthetic web — first-party page code, analytics
// SDKs, tag managers, RTB exchanges, consent managers — is a SiteScript
// program. Scripts interact with the page exclusively through a Host
// interface (document.cookie, cookieStore, network sends, DOM mutation,
// dynamic script injection), which is exactly the interception surface the
// paper's measurement extension and CookieGuard wrap.
//
// The language goes only as far as the generated web's scripts go:
// lexical scoping, conditionals, for-in loops over lists and maps,
// closures passed to the host as callbacks (on_click, on_click_id,
// defer_run), and the string and encoding builtins trackers use when
// reading and exfiltrating cookie values (split, join, b64, md5, sha1 —
// see the LinkedIn insight-tag case study in paper §5.4). Every call
// names a builtin, and a program nests at most maxDepth deep, so both
// the parser and the interpreter run in bounded stack.
package jsdsl

import "fmt"

// TokenKind enumerates lexical token types.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct   // operators and delimiters
	TokKeyword // let, if, else, for, in, fn, true, false, null
)

var keywords = map[string]bool{
	"let": true, "if": true, "else": true, "for": true, "in": true,
	"fn": true, "true": true, "false": true, "null": true,
}

// Token is one lexical token with its source position (1-based line).
type Token struct {
	Kind TokenKind
	Text string
	Line int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "EOF"
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Text
	}
}

// is reports whether the token is the given punct/keyword text.
func (t Token) is(text string) bool {
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

// SyntaxError is a lexing or parsing error with position information.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsdsl: line %d: %s", e.Line, e.Msg)
}
