package jsdsl

import (
	"fmt"
	"strconv"
	"sync"
)

// tokenBufs recycles Parse's token buffers. The AST copies what it needs
// out of the tokens (texts are strings, never the slice), so a buffer is
// dead once its parse returns.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// Parse lexes and parses a SiteScript source into a Program. The
// program's nodes come from one slab per node kind (see nodeSlabs),
// and its names and unescaped string literals are substrings of src, so
// the program keeps src alive.
func Parse(src string) (*Program, error) {
	buf := tokenBufs.Get().(*[]Token)
	toks, err := lexInto(*buf, src)
	defer func() {
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
type parser struct {
	toks []Token
	pos  int
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
	t := p.cur()
	switch {
	case t.is("let"):
		return p.parseLet()
	case t.is("if"):
		return p.parseIf()
	case t.is("while"):
		return p.parseWhile()
	case t.is("for"):
		return p.parseForIn()
	case t.is("return"):
		return p.parseReturn()
	case t.is("break"):
		p.advance()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return p.breaks.put(BreakStmt{Line: t.Line}), nil
	case t.is("continue"):
		p.advance()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return p.continues.put(ContinueStmt{Line: t.Line}), nil
	case t.is("{"):
		return p.parseBlock()
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
	return p.lets.put(LetStmt{Name: name, Init: init, Line: line}), nil
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
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := p.ifs.put(IfStmt{Cond: cond, Then: then, Line: line})
	if p.accept("else") {
		if p.cur().is("if") {
			elseIf, err := p.parseIf()
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
	}
	return st, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	line := p.cur().Line
	p.advance()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return p.whiles.put(WhileStmt{Cond: cond, Body: body, Line: line}), nil
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
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return p.forIns.put(ForInStmt{Var: v, Seq: seq, Body: body, Line: line}), nil
}

func (p *parser) parseReturn() (Stmt, error) {
	line := p.cur().Line
	p.advance()
	if p.accept(";") {
		return p.returns.put(ReturnStmt{Line: line}), nil
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return p.returns.put(ReturnStmt{Value: v, Line: line}), nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	line := p.cur().Line
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var buf [16]Stmt
	stmts := buf[:0]
	for !p.cur().is("}") {
		if p.at(TokEOF) {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.advance() // }
	return p.blocks.put(BlockStmt{Stmts: carve(&p.stmtList, stmts), Line: line}), nil
}

// parseSimpleStmt handles assignments and bare expression statements.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	line := p.cur().Line
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().is("=") || p.cur().is("+=") || p.cur().is("-=") {
		op := p.advance().Text
		switch x.(type) {
		case *Ident, *IndexExpr:
		default:
			return nil, p.errf("invalid assignment target")
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return p.assigns.put(AssignStmt{Target: x, Op: op, Value: val, Line: line}), nil
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return p.exprStmts.put(ExprStmt{X: x, Line: line}), nil
}

// --- Expressions (precedence climbing) ---

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return left, nil
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = p.binaries.put(BinaryExpr{Op: t.Text, L: left, R: right, Line: t.Line})
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.is("!") || t.is("-") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.unaries.put(UnaryExpr{Op: t.Text, X: x, Line: t.Line}), nil
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary followed by call/index suffixes.
func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case t.is("("):
			p.advance()
			var buf [8]Expr
			args := buf[:0]
			for !p.cur().is(")") {
				if p.at(TokEOF) {
					return nil, p.errf("unterminated call")
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			x = p.calls.put(CallExpr{Callee: x, Args: carve(&p.exprList, args), Line: t.Line})
		case t.is("["):
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = p.indexes.put(IndexExpr{X: x, Index: idx, Line: t.Line})
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return p.nums.put(NumberLit{Value: f, Line: t.Line}), nil
	case t.Kind == TokString:
		p.advance()
		return p.strs.put(StringLit{Value: t.Text, Line: t.Line}), nil
	case t.is("true"), t.is("false"):
		p.advance()
		return p.bools.put(BoolLit{Value: t.Text == "true", Line: t.Line}), nil
	case t.is("null"):
		p.advance()
		return p.nulls.put(NullLit{Line: t.Line}), nil
	case t.Kind == TokIdent:
		p.advance()
		return p.idents.put(Ident{Name: t.Text, Line: t.Line}), nil
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
		for !p.cur().is("]") {
			if p.at(TokEOF) {
				return nil, p.errf("unterminated list literal")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return p.lists.put(ListLit{Elems: carve(&p.exprList, elems), Line: t.Line}), nil
	case t.is("{"):
		p.advance()
		var keyBuf, valBuf [8]Expr
		keys, vals := keyBuf[:0], valBuf[:0]
		for !p.cur().is("}") {
			if p.at(TokEOF) {
				return nil, p.errf("unterminated map literal")
			}
			k, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
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
		}), nil
	case t.is("fn"):
		p.advance()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		fl := p.funcs.put(FuncLit{Line: t.Line})
		for !p.cur().is(")") {
			if !p.at(TokIdent) {
				return nil, p.errf("expected parameter name")
			}
			fl.Params = append(fl.Params, p.advance().Text)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		fl.Body = body
		return fl, nil
	default:
		return nil, p.errf("unexpected token %s", t)
	}
}
