package jsdsl

// slab hands out the elements of one backing array, allocated once at
// the size a census of the tokens predicted. When the census undercounts,
// put falls back to one allocation per node, so a wrong count costs
// allocations, never correctness. Slabs belong to one Parse call and are
// never reused: the nodes they hold are the cached, shared program.
type slab[T any] struct{ buf []T }

func makeSlab[T any](n int) slab[T] { return slab[T]{buf: makeList[T](n)} }

// put stores v in the next free element and returns its address.
func (s *slab[T]) put(v T) *T {
	if len(s.buf) == cap(s.buf) {
		p := new(T)
		*p = v
		return p
	}
	s.buf = append(s.buf, v)
	return &s.buf[len(s.buf)-1]
}

// carve copies list into the shared backing and returns the copy with
// its capacity equal to its length, so an append by any holder
// reallocates instead of writing into the next list. An empty list stays
// nil, as an append-built one would be.
func carve[T any](backing *[]T, list []T) []T {
	n := len(list)
	if n == 0 {
		return nil
	}
	b := *backing
	if cap(b)-len(b) < n {
		return append(make([]T, 0, n), list...)
	}
	start := len(b)
	*backing = append(b, list...)
	return (*backing)[start : start+n : start+n]
}

// nodeSlabs holds one Parse call's nodes, one slab per node kind, and the
// shared backings its expression and statement lists are carved from.
type nodeSlabs struct {
	idents    slab[Ident]
	nums      slab[NumberLit]
	strs      slab[StringLit]
	bools     slab[BoolLit]
	nulls     slab[NullLit]
	lists     slab[ListLit]
	maps      slab[MapLit]
	funcs     slab[FuncLit]
	calls     slab[CallExpr]
	indexes   slab[IndexExpr]
	binaries  slab[BinaryExpr]
	lets      slab[LetStmt]
	assigns   slab[AssignStmt]
	exprStmts slab[ExprStmt]
	ifs       slab[IfStmt]
	forIns    slab[ForInStmt]
	blocks    slab[BlockStmt]

	exprList []Expr
	stmtList []Stmt
}

// newNodeSlabs sizes every slab from one pass over toks, which must end
// with TokEOF. Each token is classified by the one before it, as the
// parser will read it: "(" after a name opens a call, "[" after an
// operand an index, and "{" after ")" or "else" opens a block, anywhere
// else a map.
// List slots are counted as each non-empty call, list or map's first
// element plus one per "," and one per ":", which adds a map's values to
// its keys. For well-formed sources the counts are exact, except that a
// trailing comma counts one slot too many.
func newNodeSlabs(toks []Token) nodeSlabs {
	var (
		idents, nums, strs, bools, nulls, lists, maps, funcs int
		calls, indexes, binaries, lets, assigns, semis       int
		ifs, elseIfs, forIns, blocks, commas, colons         int
		nonEmpty                                             int
	)
	prev := Token{Kind: TokEOF}
	for i, t := range toks {
		switch t.Kind {
		case TokIdent:
			idents++
		case TokNumber:
			nums++
		case TokString:
			strs++
		case TokKeyword:
			switch t.Text {
			case "true", "false":
				bools++
			case "null":
				nulls++
			case "let":
				lets++
				idents-- // the declared name
			case "if":
				ifs++
				if prev.is("else") {
					elseIfs++
				}
			case "for":
				forIns++
				idents-- // the loop variable
			case "fn":
				funcs++
			}
		case TokPunct:
			switch t.Text {
			case "(":
				if prev.Kind == TokIdent {
					calls++
					if !toks[i+1].is(")") {
						nonEmpty++
					}
				}
			case "[":
				if endsOperand(prev) {
					indexes++
				} else {
					lists++
					if !toks[i+1].is("]") {
						nonEmpty++
					}
				}
			case "{":
				switch {
				case prev.is(")") || prev.is("else"):
					blocks++
				default:
					maps++
					if !toks[i+1].is("}") {
						nonEmpty++
					}
				}
			case ",":
				commas++
			case ":":
				colons++
			case ";":
				semis++
			case "=", "+=":
				assigns++
			default:
				if _, ok := binaryPrec[t.Text]; ok {
					binaries++
				}
			}
		}
		prev = t
	}
	assigns -= lets // a let's "=" is part of the LetStmt
	exprStmts := semis - lets - assigns
	return nodeSlabs{
		idents:    makeSlab[Ident](idents),
		nums:      makeSlab[NumberLit](nums),
		strs:      makeSlab[StringLit](strs),
		bools:     makeSlab[BoolLit](bools),
		nulls:     makeSlab[NullLit](nulls),
		lists:     makeSlab[ListLit](lists),
		maps:      makeSlab[MapLit](maps),
		funcs:     makeSlab[FuncLit](funcs),
		calls:     makeSlab[CallExpr](calls),
		indexes:   makeSlab[IndexExpr](indexes),
		binaries:  makeSlab[BinaryExpr](binaries),
		lets:      makeSlab[LetStmt](lets),
		assigns:   makeSlab[AssignStmt](assigns),
		exprStmts: makeSlab[ExprStmt](exprStmts),
		ifs:       makeSlab[IfStmt](ifs),
		forIns:    makeSlab[ForInStmt](forIns),
		blocks:    makeSlab[BlockStmt](blocks),
		exprList:  makeList[Expr](commas + colons + nonEmpty),
		stmtList:  makeList[Stmt](semis + ifs - elseIfs + forIns),
	}
}

// makeList returns an empty slice with capacity n, or nil when n <= 0.
func makeList[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	return make([]T, 0, n)
}

// endsOperand reports whether t can end an operand, so that the token
// after it continues an expression rather than starting one.
func endsOperand(t Token) bool {
	switch t.Kind {
	case TokIdent, TokNumber, TokString:
		return true
	case TokKeyword:
		return t.Text == "true" || t.Text == "false" || t.Text == "null"
	case TokPunct:
		return t.Text == ")" || t.Text == "]"
	}
	return false
}
