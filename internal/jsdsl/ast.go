package jsdsl

// Node is any AST node.
//
// Immutability contract: every AST node is frozen once Parse returns.
// The interpreter never writes to a node — all mutable execution state
// (scopes, step counters, closure environments) lives in Interp and Env,
// and runtime values built from literals (lists, maps) are fresh
// allocations per evaluation. This is what makes a *Program safe to
// cache and share: the artifact cache hands the same AST to any number
// of concurrent interpreters (parse once, run many).
type Node interface{ node() }

// --- Statements ---

// Stmt is a statement node.
type Stmt interface {
	Node
	stmt()
}

// Program is a parsed script: a list of top-level statements. A Program
// is immutable and reentrant — see the Node immutability contract.
type Program struct {
	Stmts []Stmt
}

// LetStmt declares a new variable in the current scope.
type LetStmt struct {
	Name string
	Init Expr
	Line int
}

// AssignStmt assigns to a variable. Op is "=" or "+=".
type AssignStmt struct {
	Target Expr // always an *Ident
	Op     string
	Value  Expr
	Line   int
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	X    Expr
	Line int
}

// IfStmt is if/else (Else may be nil, a *BlockStmt, or another *IfStmt
// for else-if).
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else Stmt
	Line int
}

// ForInStmt iterates over a list's elements or a map's keys.
type ForInStmt struct {
	Var  string
	Seq  Expr
	Body *BlockStmt
	Line int
}

// BlockStmt is a braced statement list with its own scope: the body of
// an if, else, for-in or fn. A block is never a statement of its own.
type BlockStmt struct {
	Stmts []Stmt
	Line  int
}

func (*LetStmt) node()    {}
func (*AssignStmt) node() {}
func (*ExprStmt) node()   {}
func (*IfStmt) node()     {}
func (*ForInStmt) node()  {}
func (*BlockStmt) node()  {}

func (*LetStmt) stmt()    {}
func (*AssignStmt) stmt() {}
func (*ExprStmt) stmt()   {}
func (*IfStmt) stmt()     {}
func (*ForInStmt) stmt()  {}
func (*BlockStmt) stmt()  {}

// --- Expressions ---

// Expr is an expression node.
type Expr interface {
	Node
	expr()
}

// Ident references a variable.
type Ident struct {
	Name string
	Line int
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
	Line  int
}

// StringLit is a string literal.
type StringLit struct {
	Value string
	Line  int
}

// BoolLit is true/false.
type BoolLit struct {
	Value bool
	Line  int
}

// NullLit is null.
type NullLit struct{ Line int }

// ListLit is [a, b, c].
type ListLit struct {
	Elems []Expr
	Line  int
}

// MapLit is {"k": v, ...}.
type MapLit struct {
	Keys   []Expr
	Values []Expr
	Line   int
}

// FuncLit is fn() { body } — a closure, which only a host runs, as a
// callback. It takes no parameters: Params is always nil.
type FuncLit struct {
	Params []string
	Body   *BlockStmt
	Line   int
}

// CallExpr is builtin(args...).
type CallExpr struct {
	Callee Expr // always an *Ident naming the builtin
	Args   []Expr
	Line   int
}

// IndexExpr is x[i].
type IndexExpr struct {
	X     Expr
	Index Expr
	Line  int
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   string
	L, R Expr
	Line int
}

func (*Ident) node()      {}
func (*NumberLit) node()  {}
func (*StringLit) node()  {}
func (*BoolLit) node()    {}
func (*NullLit) node()    {}
func (*ListLit) node()    {}
func (*MapLit) node()     {}
func (*FuncLit) node()    {}
func (*CallExpr) node()   {}
func (*IndexExpr) node()  {}
func (*BinaryExpr) node() {}

func (*Ident) expr()      {}
func (*NumberLit) expr()  {}
func (*StringLit) expr()  {}
func (*BoolLit) expr()    {}
func (*NullLit) expr()    {}
func (*ListLit) expr()    {}
func (*MapLit) expr()     {}
func (*FuncLit) expr()    {}
func (*CallExpr) expr()   {}
func (*IndexExpr) expr()  {}
func (*BinaryExpr) expr() {}
