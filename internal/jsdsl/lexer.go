package jsdsl

import (
	"fmt"
	"strings"
)

// Lex tokenizes src. The returned slice always ends with a TokEOF token.
func Lex(src string) ([]Token, error) {
	toks, err := lexInto(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lexInto tokenizes src, appending to dst[:0], and returns the grown
// slice. On error it returns dst[:0] alongside the error, so a caller
// lexing into a pooled buffer can still hand the buffer back.
func lexInto(dst []Token, src string) ([]Token, error) {
	l := lexer{src: src, line: 1}
	toks := dst[:0]
	for {
		tok, err := l.next()
		if err != nil {
			return toks[:0], err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

type lexer struct {
	src  string
	pos  int
	line int
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexIdent(), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(), nil
	case c == '"' || c == '\'':
		return l.lexString(c)
	default:
		return l.lexPunct()
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (l *lexer) lexIdent() Token {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	kind := TokIdent
	if keywords[text] {
		kind = TokKeyword
	}
	return Token{Kind: kind, Text: text, Line: l.line}
}

func (l *lexer) lexNumber() Token {
	start := l.pos
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: l.line}
}

// lexString lexes a quoted literal. A literal without an escape is
// returned as a substring of the source, with no copy; the first escape
// hands over to lexEscapedString.
func (l *lexer) lexString(quote byte) (Token, error) {
	l.pos++ // opening quote
	start := l.pos
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case quote:
			l.pos++
			return Token{Kind: TokString, Text: l.src[start : l.pos-1], Line: l.line}, nil
		case '\\':
			return l.lexEscapedString(quote, start)
		case '\n':
			return Token{}, l.errf("unterminated string")
		}
		l.pos++
	}
	return Token{}, l.errf("unterminated string")
}

// lexEscapedString finishes a literal that opened at start and has an
// escape at l.pos, building its text.
func (l *lexer) lexEscapedString(quote byte, start int) (Token, error) {
	var b strings.Builder
	b.WriteString(l.src[start:l.pos])
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return Token{Kind: TokString, Text: b.String(), Line: l.line}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return Token{}, l.errf("unterminated escape")
			}
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			default:
				b.WriteByte(l.src[l.pos])
			}
			l.pos++
		case '\n':
			return Token{}, l.errf("unterminated string")
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return Token{}, l.errf("unterminated string")
}

var twoBytePuncts = map[string]bool{
	"==": true, "!=": true, ">=": true, "&&": true, "+=": true,
}

func (l *lexer) lexPunct() (Token, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoBytePuncts[two] {
			l.pos += 2
			return Token{Kind: TokPunct, Text: two, Line: l.line}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', '{', '}', '[', ']', ',', ';', ':', '=', '+', '-', '>':
		l.pos++
		return Token{Kind: TokPunct, Text: l.src[l.pos-1 : l.pos], Line: l.line}, nil
	}
	return Token{}, l.errf("unexpected character %q", string(c))
}
