package jsdsl

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultMaxSteps bounds script execution; a real browser has watchdogs
// for runaway scripts, and the interpreter needs the same property so a
// buggy generated script cannot stall a 20,000-site crawl.
const DefaultMaxSteps = 500_000

// maxRunBytes bounds the bytes one script run may build from its own
// values — string +, and the builtins that make a string or list out of
// their arguments (join, split, str, b64, push, ...). The
// step budget bounds time but not space: a loop that doubles a string
// needs only a few dozen steps to exhaust any machine's memory. The
// largest total one script run reaches in a webgen crawl is about
// 10 KiB, so the budget never binds on generated pages.
//
// A + chain builds its string once, but is charged as if each + made
// its own string: every + whose result is a string charges that
// result's length, so a+b+c charges len(a+b) + len(a+b+c), plus the
// rendering of any list or map operand.
const maxRunBytes = 16 << 20

// valueBytes is the size of one Value (unsafe.Sizeof on 64-bit
// platforms), charged per element a builtin adds to a list.
const valueBytes = 48

// RuntimeError is a script execution error with its source line.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("jsdsl: runtime error at line %d: %s", e.Line, e.Msg)
}

// maxCallDepth bounds how deeply callbacks re-enter the interpreter. A
// host that runs a callback while the script that registered it is
// still running (NopHost's DeferRun) nests one callback run inside
// another, and a callback that registers itself would otherwise recurse
// until the Go stack overflows. The browser queues every callback, so
// its callbacks never nest.
const maxCallDepth = 32

// Interp executes SiteScript programs against a Host. One Interp runs
// one script at a time (it is not itself safe for concurrent use), but
// any number of Interps may concurrently execute the same shared
// *Program: the interpreter treats the AST as read-only and keeps every
// piece of mutable state — scopes, closures' environments, the step
// counter — on the Interp or in per-run Envs.
type Interp struct {
	Host     Host
	MaxSteps int

	steps   int
	bytes   int // charged against maxRunBytes; reset with steps
	calls   int // callback runs in progress, at most maxCallDepth
	globals *Env

	// cbErr is the first error of a callback run during Run, which Run
	// reports once the program has finished; the host's callback has no
	// way to return it.
	cbErr error

	// envFree recycles block/call scopes within and across runs of this
	// interpreter. A scope returns here when its block exits, unless a
	// closure captured it (Env.captured).
	envFree []*Env

	// argStack is the shared backing for builtin/closure argument slices:
	// arguments are pushed per call and popped on return, so nested calls
	// reuse one growing buffer instead of allocating a slice per call.
	argStack []Value

	// maps is the per-interp freelist for script Map values: maps[:mapNext]
	// are live (handed to the current run), maps[mapNext:] are free. Maps
	// have no scoped death — a script can stash one anywhere — but none
	// can outlive the interpreter's run lifetime (the Host bridge traffics
	// only in strings, CookieRecords and CookiePairs, and closures that
	// captured one may not run after Release), so Release clears and
	// reclaims them all.
	maps    []*Map
	mapNext int

	// docPairs receives document.cookie from the Host on every read by
	// get_cookie, get_all_cookies and doc_cookie; the pairs' strings go
	// into script values unchanged, so the buffer itself never escapes.
	docPairs []CookiePair

	// pairKeys and pairVals hold a script map's sorted keys and rendered
	// values for send and dom_insert (the Host borrows them for the
	// call); assign holds the bytes of a set_cookie assignment while
	// buildAssignment builds it.
	pairKeys []string
	pairVals []string
	assign   []byte

	// concat is the byte stack + chains build their strings on: a chain
	// appends above the length it found and truncates back to it once it
	// has made its string, so a chain nested in an operand's arguments
	// builds above the outer chain's bytes, as argStack nests calls.
	concat []byte
}

// NewInterp returns an interpreter bound to host.
func NewInterp(host Host) *Interp {
	return &Interp{Host: host, MaxSteps: DefaultMaxSteps, globals: NewEnv(nil)}
}

// interpPool recycles interpreters across script runs. An interpreter's
// recycled state — scope maps, the argument stack, the document.cookie
// pair buffer — is what makes repeated script execution allocation-frugal.
var (
	interpPool = sync.Pool{New: func() any {
		interpAllocated.Add(1)
		return NewInterp(nil)
	}}
	interpAllocated atomic.Uint64
	interpAcquired  atomic.Uint64
)

// AcquireInterp returns a pooled interpreter bound to host. The caller
// owns it until Release; interpreters must not be released while any
// closure they produced (click handlers, deferred callbacks) can still
// run.
func AcquireInterp(host Host) *Interp {
	interpAcquired.Add(1)
	in := interpPool.Get().(*Interp)
	in.Host = host
	return in
}

// interpMapsMax bounds the Map freelist an interpreter retains across
// releases; a pathological page that built thousands of maps should not
// pin them in the pool forever.
const interpMapsMax = 256

// interpConcatMax bounds the concat buffer an interpreter retains across
// releases; a chain that ran into maxRunBytes should not pin its buffer
// in the pool.
const interpConcatMax = 64 << 10

// Release resets the interpreter (empty global scope, zero step count)
// and returns it to the pool. Script Maps created during the run are
// cleared and reclaimed into the per-interp freelist: nothing can reach
// them afterwards (see the maps field). The global scope is cleared in
// place even when a closure captured it, since no closure may run after
// Release (AcquireInterp).
func (in *Interp) Release() {
	in.Host = nil
	in.steps = 0
	in.bytes = 0
	in.cbErr = nil
	in.MaxSteps = DefaultMaxSteps
	clear(in.globals.vars)
	in.globals.captured = false
	for _, m := range in.maps[:in.mapNext] {
		clear(m.Entries)
	}
	if len(in.maps) > interpMapsMax {
		in.maps = in.maps[:interpMapsMax]
	}
	in.mapNext = 0
	if cap(in.concat) > interpConcatMax {
		in.concat = nil
	}
	clear(in.pairKeys[:cap(in.pairKeys)])
	clear(in.pairVals[:cap(in.pairVals)])
	clear(in.docPairs[:cap(in.docPairs)])
	interpPool.Put(in)
}

// newMap returns a cleared Map from the per-interp freelist, growing it
// on first use. The map stays owned by the interpreter and is reclaimed
// at Release, so repeated runs reuse both the Map headers and their
// bucket storage.
func (in *Interp) newMap() *Map {
	if in.mapNext < len(in.maps) {
		m := in.maps[in.mapNext]
		in.mapNext++
		return m
	}
	m := NewMap()
	in.maps = append(in.maps, m)
	in.mapNext++
	return m
}

// InterpPoolStats reports how many interpreters were ever allocated and
// how many acquisitions the pool served.
func InterpPoolStats() (allocated, acquired uint64) {
	return interpAllocated.Load(), interpAcquired.Load()
}

// newEnv returns a (pooled, if available) scope chained to parent.
func (in *Interp) newEnv(parent *Env) *Env {
	if n := len(in.envFree); n > 0 {
		e := in.envFree[n-1]
		in.envFree = in.envFree[:n-1]
		e.parent = parent
		return e
	}
	return NewEnv(parent)
}

// releaseEnv recycles a scope whose block has exited. Captured scopes
// (closures reference them) are left to the garbage collector.
func (in *Interp) releaseEnv(e *Env) {
	if e.captured {
		return
	}
	clear(e.vars)
	e.parent = nil
	in.envFree = append(in.envFree, e)
}

// Run executes a program in the interpreter's global scope. It returns
// the program's error, or else the first error of a callback the host ran
// before Run returned.
func (in *Interp) Run(prog *Program) error {
	in.cbErr = nil
	for _, s := range prog.Stmts {
		if err := in.execStmt(s, in.globals); err != nil {
			return err
		}
	}
	return in.cbErr
}

// RunSource parses and executes src.
func (in *Interp) RunSource(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return in.Run(prog)
}

// Steps returns the number of interpreter steps executed so far, at most
// MaxSteps+1; the browser charges virtual execution time proportionally.
func (in *Interp) Steps() int { return in.steps }

// step counts one step. Once the budget is spent every step fails and
// the count stays at MaxSteps+1, so a callback that swallowed the first
// failure cannot run on.
func (in *Interp) step(line int) error {
	if in.steps <= in.MaxSteps {
		in.steps++
	}
	if in.steps > in.MaxSteps {
		return &RuntimeError{Line: line, Msg: "step budget exhausted"}
	}
	return nil
}

func errBudget() error { return &RuntimeError{Msg: "memory budget exhausted"} }

// charge books n bytes a builder is about to produce against the run's
// maxRunBytes budget, failing the script once the budget is overrun.
func (in *Interp) charge(n int) error {
	in.bytes += n
	if in.bytes > maxRunBytes {
		return errBudget()
	}
	return nil
}

// str is ToString under the byte budget: a list or map renders only as
// far as the budget left allows, and the rendering is charged.
func (in *Interp) str(v Value) (string, error) {
	if v.kind != KindRef {
		return ToString(v), nil
	}
	b, err := in.appendStr(nil, v)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendStr appends str(v) to b without making the string: a number's
// digits are formatted in place, and a list or map is rendered and
// charged as str renders and charges it.
func (in *Interp) appendStr(b []byte, v Value) ([]byte, error) {
	switch v.kind {
	case KindString:
		return append(b, v.str...), nil
	case KindNumber:
		return appendNumber(b, v.num), nil
	case KindRef:
		n := len(b)
		b, err := appendValue(b, v, n+maxRunBytes-in.bytes, 0)
		if err != nil {
			return b, err
		}
		return b, in.charge(len(b) - n)
	}
	return append(b, ToString(v)...), nil
}

func (in *Interp) execStmt(s Stmt, env *Env) error {
	switch st := s.(type) {
	case *LetStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		v, err := in.eval(st.Init, env)
		if err != nil {
			return err
		}
		env.Define(st.Name, v)
		return nil

	case *AssignStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		return in.execAssign(st, env)

	case *ExprStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		_, err := in.eval(st.X, env)
		return err

	case *IfStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		cond, err := in.eval(st.Cond, env)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			scope := in.newEnv(env)
			err := in.execBlock(st.Then, scope)
			in.releaseEnv(scope)
			return err
		}
		if st.Else != nil {
			return in.execStmt(st.Else, env)
		}
		return nil

	case *ForInStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		seq, err := in.eval(st.Seq, env)
		if err != nil {
			return err
		}
		var items []Value
		switch seq.kind {
		case KindNull:
			return nil
		case KindString:
			for _, ch := range seq.str {
				items = append(items, Str(string(ch)))
			}
		case KindRef:
			switch x := seq.ref.(type) {
			case *List:
				items = append(items, x.Elems...)
			case *Map:
				for _, k := range x.Keys() {
					items = append(items, Str(k))
				}
			default:
				return &RuntimeError{Line: st.Line, Msg: "for-in over non-iterable"}
			}
		default:
			return &RuntimeError{Line: st.Line, Msg: "for-in over non-iterable"}
		}
		for _, item := range items {
			if err := in.step(st.Line); err != nil {
				return err
			}
			scope := in.newEnv(env)
			scope.Define(st.Var, item)
			err := in.execBlock(st.Body, scope)
			in.releaseEnv(scope)
			if err != nil {
				return err
			}
		}
		return nil

	case *BlockStmt: // an else block
		scope := in.newEnv(env)
		err := in.execBlock(st, scope)
		in.releaseEnv(scope)
		return err
	default:
		return &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

func (in *Interp) execBlock(b *BlockStmt, env *Env) error {
	for _, s := range b.Stmts {
		if err := in.execStmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execAssign(st *AssignStmt, env *Env) error {
	v, err := in.eval(st.Value, env)
	if err != nil {
		return err
	}
	name := st.Target.(*Ident).Name
	old, ok := env.Lookup(name)
	if !ok {
		return &RuntimeError{Line: st.Line, Msg: "assignment to undeclared variable " + name}
	}
	if st.Op == "+=" {
		base := len(in.concat)
		acc, inBuf, err := in.plus(base, old, false, v, st.Line)
		if v, err = in.endPlus(base, acc, inBuf, err); err != nil {
			return err
		}
	}
	env.Set(name, v)
	return nil
}

func (in *Interp) eval(e Expr, env *Env) (Value, error) {
	switch x := e.(type) {
	case *NumberLit:
		return Num(x.Value), nil
	case *StringLit:
		return Str(x.Value), nil
	case *BoolLit:
		return BoolVal(x.Value), nil
	case *NullLit:
		return Value{}, nil

	case *Ident:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		return Value{}, &RuntimeError{Line: x.Line, Msg: "undefined variable " + x.Name}

	case *ListLit:
		l := &List{}
		if n := len(x.Elems); n > 0 {
			l.Elems = make([]Value, 0, n)
		}
		for _, el := range x.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return Value{}, err
			}
			l.Elems = append(l.Elems, v)
		}
		return ListVal(l), nil

	case *MapLit:
		m := in.newMap()
		for i := range x.Keys {
			kv, err := in.eval(x.Keys[i], env)
			if err != nil {
				return Value{}, err
			}
			k, ok := kv.AsString()
			if !ok {
				return Value{}, &RuntimeError{Line: x.Line, Msg: "map key must be a string"}
			}
			v, err := in.eval(x.Values[i], env)
			if err != nil {
				return Value{}, err
			}
			m.Entries[k] = v
		}
		return MapVal(m), nil

	case *FuncLit:
		// The closure can reach every scope on the chain; mark them all
		// captured so none returns to the scope pool under it.
		for s := env; s != nil && !s.captured; s = s.parent {
			s.captured = true
		}
		return ClosureVal(&Closure{Fn: x, Env: env}), nil

	case *IndexExpr:
		container, err := in.eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		idx, err := in.eval(x.Index, env)
		if err != nil {
			return Value{}, err
		}
		switch container.kind {
		case KindString:
			i, ok := idx.AsNumber()
			if !ok || int(i) < 0 || int(i) >= len(container.str) {
				return Value{}, nil
			}
			return Str(string(container.str[int(i)])), nil
		case KindNull:
			return Value{}, &RuntimeError{Line: x.Line, Msg: "cannot index null"}
		case KindRef:
			switch c := container.ref.(type) {
			case *List:
				i, ok := idx.AsNumber()
				if !ok || int(i) < 0 || int(i) >= len(c.Elems) {
					return Value{}, nil // out-of-range reads yield null, like JS undefined
				}
				return c.Elems[int(i)], nil
			case *Map:
				k, ok := idx.AsString()
				if !ok {
					return Value{}, &RuntimeError{Line: x.Line, Msg: "map key must be a string"}
				}
				return c.Entries[k], nil
			}
		}
		return Value{}, &RuntimeError{Line: x.Line, Msg: "cannot index this value"}

	case *BinaryExpr:
		if x.Op == "+" {
			return in.evalPlus(x, env)
		}
		// Short-circuit logical operators.
		if x.Op == "&&" {
			l, err := in.eval(x.L, env)
			if err != nil {
				return Value{}, err
			}
			if !Truthy(l) {
				return l, nil
			}
			return in.eval(x.R, env)
		}
		l, err := in.eval(x.L, env)
		if err != nil {
			return Value{}, err
		}
		r, err := in.eval(x.R, env)
		if err != nil {
			return Value{}, err
		}
		return in.binop(x.Op, l, r, x.Line)

	case *CallExpr:
		name := x.Callee.(*Ident).Name
		f := builtins[name]
		if f == nil {
			return Value{}, &RuntimeError{Line: x.Line, Msg: "undefined function " + name}
		}
		// Arguments are pushed on the interpreter's shared stack; the
		// slice passed down is consumed synchronously by the builtin, so
		// popping after the call is sound.
		base := len(in.argStack)
		if err := in.pushArgs(x.Args, env); err != nil {
			return Value{}, err
		}
		out, err := f(in, in.argStack[base:])
		in.argStack = in.argStack[:base]
		atLine(err, x.Line)
		return out, err
	default:
		return Value{}, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e)}
	}
}

// pushArgs evaluates args in order onto the argument stack; on an error
// it pops what it pushed.
func (in *Interp) pushArgs(args []Expr, env *Env) error {
	base := len(in.argStack)
	for _, a := range args {
		v, err := in.eval(a, env)
		if err != nil {
			in.argStack = in.argStack[:base]
			return err
		}
		in.argStack = append(in.argStack, v)
	}
	return nil
}

// atLine gives a builtin's error, which carries no line, the line of
// the call.
func atLine(err error, line int) {
	if re, ok := err.(*RuntimeError); ok && re.Line == 0 {
		re.Line = line
	}
}

// evalPlus evaluates the + chain whose last + is x in one pass. Its
// operands are evaluated left to right and numbers add as numbers until
// the first string; from then on every operand is appended to in.concat
// and the string is made once, at the end. Values, errors and byte
// charges are those of folding the chain one + at a time.
func (in *Interp) evalPlus(x *BinaryExpr, env *Env) (Value, error) {
	base := len(in.concat)
	acc, inBuf, err := in.plusChain(x, env, base)
	return in.endPlus(base, acc, inBuf, err)
}

// endPlus returns a chain's value, making its string when the value is
// in.concat[base:], and pops the chain's bytes.
func (in *Interp) endPlus(base int, acc Value, inBuf bool, err error) (Value, error) {
	if err != nil {
		acc = Value{}
	} else if inBuf {
		acc = Str(string(in.concat[base:]))
	}
	in.concat = in.concat[:base]
	return acc, err
}

// plusChain folds the operands of the chain ending at x into an
// accumulator: acc, or the string in.concat[base:] when inBuf. An
// operand that calls an append-form builtin appends its result straight
// to in.concat, unless acc is a list or map the call's arguments could
// still change before acc is rendered.
func (in *Interp) plusChain(x *BinaryExpr, env *Env, base int) (acc Value, inBuf bool, err error) {
	if l, ok := x.L.(*BinaryExpr); ok && l.Op == "+" {
		acc, inBuf, err = in.plusChain(l, env, base)
	} else if call, f := appendForm(x.L); f != nil {
		inBuf = true
		err = in.appendCall(call, f, env)
	} else {
		acc, err = in.eval(x.L, env)
	}
	if err != nil {
		return Value{}, false, err
	}
	if call, f := appendForm(x.R); f != nil && (inBuf || acc.kind != KindRef) {
		if !inBuf {
			in.concat, _ = in.appendStr(in.concat, acc) // not a list or map: cannot fail
		}
		if err := in.appendCall(call, f, env); err != nil {
			return Value{}, true, err
		}
		if err := in.charge(len(in.concat) - base); err != nil {
			err.(*RuntimeError).Line = x.Line
			return Value{}, true, err
		}
		return Value{}, true, nil
	}
	v, err := in.eval(x.R, env)
	if err != nil {
		return Value{}, inBuf, err
	}
	return in.plus(base, acc, inBuf, v, x.Line)
}

// plus folds v into a chain's accumulator at the + on line: numbers add,
// and if either side is a string, str(v) is appended to str(acc) and the
// + is charged its result's length. As when the + made its own string,
// str of both sides and the charge all happen before the first error
// among them is reported.
func (in *Interp) plus(base int, acc Value, inBuf bool, v Value, line int) (Value, bool, error) {
	var lerr, rerr error
	if !inBuf {
		if acc.kind == KindNumber && v.kind == KindNumber {
			return Num(acc.num + v.num), false, nil
		}
		if acc.kind != KindString && v.kind != KindString {
			return Value{}, false, &RuntimeError{Line: line, Msg: "invalid operands for +"}
		}
		if in.concat, lerr = in.appendStr(in.concat, acc); lerr != nil {
			in.concat = in.concat[:base]
		}
	}
	mid := len(in.concat)
	if in.concat, rerr = in.appendStr(in.concat, v); rerr != nil {
		in.concat = in.concat[:mid]
	}
	if err := cmp.Or(lerr, rerr, in.charge(len(in.concat)-base)); err != nil {
		err.(*RuntimeError).Line = line
		return Value{}, true, err
	}
	return Value{}, true, nil
}

// appendForm returns e as a call of an append-form builtin, and the
// builtin's append form, when e calls one.
func appendForm(e Expr) (*CallExpr, appendFunc) {
	call, ok := e.(*CallExpr)
	if !ok {
		return nil, nil
	}
	f := appendBuiltins[call.Callee.(*Ident).Name]
	if f == nil {
		return nil, nil
	}
	return call, f
}

// appendCall runs call, whose builtin's append form is f, appending its
// result to in.concat.
func (in *Interp) appendCall(call *CallExpr, f appendFunc, env *Env) error {
	base := len(in.argStack)
	if err := in.pushArgs(call.Args, env); err != nil {
		return err
	}
	var err error
	in.concat, err = f(in, in.concat, in.argStack[base:])
	in.argStack = in.argStack[:base]
	atLine(err, call.Line)
	return err
}

// callClosure runs a callback: the closure's body, in a scope of its
// own. It refuses to nest more than maxCallDepth callback runs.
func (in *Interp) callClosure(c *Closure) error {
	if err := in.step(c.Fn.Line); err != nil {
		return err
	}
	if in.calls == maxCallDepth {
		return &RuntimeError{Line: c.Fn.Line, Msg: "callbacks nested too deeply"}
	}
	in.calls++
	scope := in.newEnv(c.Env)
	err := in.execBlock(c.Fn.Body, scope)
	in.releaseEnv(scope)
	in.calls--
	return err
}

// callback is the host's form of callClosure: it keeps the first error
// for Run to report.
func (in *Interp) callback(c *Closure) func() {
	return func() {
		if err := in.callClosure(c); err != nil && in.cbErr == nil {
			in.cbErr = err
		}
	}
}

func (in *Interp) binop(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "-":
		if l.kind != KindNumber || r.kind != KindNumber {
			return Value{}, &RuntimeError{Line: line, Msg: "arithmetic on non-numbers"}
		}
		return Num(l.num - r.num), nil
	case "==":
		return BoolVal(valueEquals(l, r)), nil
	case "!=":
		return BoolVal(!valueEquals(l, r)), nil
	case ">", ">=":
		if l.kind != KindNumber || r.kind != KindNumber {
			return Value{}, &RuntimeError{Line: line, Msg: "invalid comparison operands"}
		}
		if op == ">" {
			return BoolVal(l.num > r.num), nil
		}
		return BoolVal(l.num >= r.num), nil
	}
	return Value{}, &RuntimeError{Line: line, Msg: "unknown operator " + op}
}
