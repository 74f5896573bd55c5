package jsdsl

import (
	"fmt"
	"strconv"
	"sync"
)

// maxDepth bounds how deeply a program nests. Parse refuses, with a
// *SyntaxError, a tree with a path of more than maxDepth nodes from a
// top-level statement down, and source whose statements and operands
// (counting each pair of parentheses) nest more than maxDepth deep. The
// parser and the interpreter both walk a tree recursively, so without
// the bound a few megabytes of "(" or a long "1 - 1 - …" chain would
// overflow the Go stack, which no recover catches. The deepest script a
// 20,000-site web with consent managers serves is 13 nodes deep.
const maxDepth = 128

// tokenBufs recycles Parse's token buffers. The AST copies what it needs
// out of the tokens (texts are strings, never the slice), so a buffer is
// dead once its parse returns.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// tokenBufMax bounds the token buffers the pool keeps, so that a huge
// source does not leave every later parse clearing its buffer. The
// longest script a 200-site web serves lexes to 538 tokens.
const tokenBufMax = 1 << 14

// Parse lexes and parses a SiteScript source into a Program. The
// program's nodes come from one slab per node kind (see nodeSlabs),
// and its names and unescaped string literals are substrings of src, so
// the program keeps src alive.
func Parse(src string) (*Program, error) {
	buf := tokenBufs.Get().(*[]Token)
	toks, err := lexInto(*buf, src)
	defer func() {
		if cap(toks) > tokenBufMax {
			return
		}
		// Clear to full capacity so the pool pins no token texts.
		clear(toks[:cap(toks)])
		*buf = toks[:0]
		tokenBufs.Put(buf)
	}()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, nodeSlabs: newNodeSlabs(toks)}
	return p.parseProgram()
}

// MustParse parses src and panics on error; for tests and embedded
// templates whose validity is guaranteed by construction.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parser builds the program's nodes into its slabs, and collects each
// statement or expression list in a local array before carving it into
// the shared backing, so lists nested inside it can be carved first.
//
// depth counts the statements and primary expressions the parser is
// inside, which bounds its recursion; height is the height in nodes of
// the node it built last, which bounds the tree's. Both stay within
// maxDepth.
type parser struct {
	toks          []Token
	pos           int
	depth, height int
	nodeSlabs
}

func (p *parser) cur() Token          { return p.toks[p.pos] }
func (p *parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.cur().is(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	return p.errf("expected %q, found %s", text, p.cur())
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.cur().Line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) errDepth() error { return p.errf("nested more than %d deep", maxDepth) }

// enter steps into a statement or primary expression, refusing to go
// deeper than maxDepth; leave steps back out.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errDepth()
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// built records that the node just built is h nodes high, refusing a
// tree higher than maxDepth.
func (p *parser) built(h int) error {
	if h > maxDepth {
		return p.errDepth()
	}
	p.height = h
	return nil
}

// --- Statements ---

func (p *parser) parseProgram() (*Program, error) {
	var buf [64]Stmt
	stmts := buf[:0]
	for !p.at(TokEOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return &Program{Stmts: carve(&p.stmtList, stmts)}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch t := p.cur(); {
	case t.is("let"):
		return p.parseLet()
	case t.is("if"):
		return p.parseIf()
	case t.is("for"):
		return p.parseForIn()
	default:
		return p.parseSimpleStmt()
	}
}

func (p *parser) parseLet() (Stmt, error) {
	line := p.cur().Line
	p.advance() // let
	if !p.at(TokIdent) {
		return nil, p.errf("expected identifier after let")
	}
	name := p.advance().Text
	if err := p.expect("="); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return p.lets.put(LetStmt{Name: name, Init: init, Line: line}), p.built(1 + p.height)
}

func (p *parser) parseIf() (Stmt, error) {
	line := p.cur().Line
	p.advance() // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	h := p.height
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	h = max(h, p.height)
	st := p.ifs.put(IfStmt{Cond: cond, Then: then, Line: line})
	if p.accept("else") {
		if p.cur().is("if") {
			elseIf, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = elseIf
		} else {
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = blk
		}
		h = max(h, p.height)
	}
	return st, p.built(1 + h)
}

func (p *parser) parseForIn() (Stmt, error) {
	line := p.cur().Line
	p.advance() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.at(TokIdent) {
		return nil, p.errf("expected loop variable")
	}
	v := p.advance().Text
	if err := p.expect("in"); err != nil {
		return nil, err
	}
	seq, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	h := p.height
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return p.forIns.put(ForInStmt{Var: v, Seq: seq, Body: body, Line: line}), p.built(1 + max(h, p.height))
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	line := p.cur().Line
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var buf [16]Stmt
	stmts := buf[:0]
	h := 0
	for !p.cur().is("}") {
		if p.at(TokEOF) {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		h = max(h, p.height)
	}
	p.advance() // }
	return p.blocks.put(BlockStmt{Stmts: carve(&p.stmtList, stmts), Line: line}), p.built(1 + h)
}

// parseSimpleStmt handles assignments and bare expression statements.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	line := p.cur().Line
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	h := p.height
	if p.cur().is("=") || p.cur().is("+=") {
		op := p.advance().Text
		if _, ok := x.(*Ident); !ok {
			return nil, p.errf("invalid assignment target")
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return p.assigns.put(AssignStmt{Target: x, Op: op, Value: val, Line: line}), p.built(1 + max(h, p.height))
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return p.exprStmts.put(ExprStmt{X: x, Line: line}), p.built(1 + h)
}

// --- Expressions (precedence climbing) ---

var binaryPrec = map[string]int{
	"&&": 1,
	"==": 2, "!=": 2,
	">": 3, ">=": 3,
	"+": 4, "-": 4,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

// parseBinary parses a chain of operators of at least minPrec. The chain
// is built by a loop, not by recursion, so it counts its own height.
func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binaryPrec[t.Text]
		if t.Kind != TokPunct || !ok || prec < minPrec {
			return left, nil
		}
		p.advance()
		lh := p.height
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = p.binaries.put(BinaryExpr{Op: t.Text, L: left, R: right, Line: t.Line})
		if err := p.built(1 + max(lh, p.height)); err != nil {
			return nil, err
		}
	}
}

// parsePostfix parses a primary followed by index suffixes, which, like a
// binary chain, count their own height.
func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().is("[") {
		t := p.advance()
		xh := p.height
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		x = p.indexes.put(IndexExpr{X: x, Index: idx, Line: t.Line})
		if err := p.built(1 + max(xh, p.height)); err != nil {
			return nil, err
		}
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return p.nums.put(NumberLit{Value: f, Line: t.Line}), p.built(1)
	case t.Kind == TokString:
		p.advance()
		return p.strs.put(StringLit{Value: t.Text, Line: t.Line}), p.built(1)
	case t.is("true"), t.is("false"):
		p.advance()
		return p.bools.put(BoolLit{Value: t.Text == "true", Line: t.Line}), p.built(1)
	case t.is("null"):
		p.advance()
		return p.nulls.put(NullLit{Line: t.Line}), p.built(1)
	case t.Kind == TokIdent:
		p.advance()
		id := p.idents.put(Ident{Name: t.Text, Line: t.Line})
		if p.cur().is("(") {
			return p.parseCall(id)
		}
		return id, p.built(1)
	case t.is("("):
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.is("["):
		p.advance()
		var buf [8]Expr
		elems := buf[:0]
		h := 0
		for !p.cur().is("]") {
			if p.at(TokEOF) {
				return nil, p.errf("unterminated list literal")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			h = max(h, p.height)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return p.lists.put(ListLit{Elems: carve(&p.exprList, elems), Line: t.Line}), p.built(1 + h)
	case t.is("{"):
		p.advance()
		var keyBuf, valBuf [8]Expr
		keys, vals := keyBuf[:0], valBuf[:0]
		h := 0
		for !p.cur().is("}") {
			if p.at(TokEOF) {
				return nil, p.errf("unterminated map literal")
			}
			k, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			keys = append(keys, k)
			vals = append(vals, v)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return p.maps.put(MapLit{
			Keys:   carve(&p.exprList, keys),
			Values: carve(&p.exprList, vals),
			Line:   t.Line,
		}), p.built(1 + h)
	case t.is("fn"):
		p.advance()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, p.errf("a closure takes no parameters, found %s", p.cur())
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return p.funcs.put(FuncLit{Body: body, Line: t.Line}), p.built(1 + p.height)
	default:
		return nil, p.errf("unexpected token %s", t)
	}
}

// parseCall parses the arguments of a call of the builtin callee names;
// the current token is the call's "(".
func (p *parser) parseCall(callee *Ident) (Expr, error) {
	line := p.advance().Line
	var buf [8]Expr
	args := buf[:0]
	h := 1 // the callee
	for !p.cur().is(")") {
		if p.at(TokEOF) {
			return nil, p.errf("unterminated call")
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		h = max(h, p.height)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return p.calls.put(CallExpr{Callee: callee, Args: carve(&p.exprList, args), Line: line}), p.built(1 + h)
}
