package jsdsl

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Kind discriminates SiteScript runtime values.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindNumber
	KindString
	KindRef // *List, *Map, or *Closure in ref
)

// Value is a SiteScript runtime value as a small tagged struct. Nulls,
// booleans, numbers, and strings live inline — passing them around the
// interpreter never heap-allocates, unlike the previous interface{}
// representation, which boxed every number and string on the hot path.
// Lists, maps, and closures are reference types carried in ref.
//
// The zero Value is null.
type Value struct {
	kind Kind
	num  float64 // number; booleans use 0/1
	str  string  // string value
	ref  any     // *List, *Map, or *Closure for KindRef
}

// Constructors.

// BoolVal returns a boolean value.
func BoolVal(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Num returns a number value.
func Num(f float64) Value { return Value{kind: KindNumber, num: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// ListVal wraps a list.
func ListVal(l *List) Value { return Value{kind: KindRef, ref: l} }

// MapVal wraps a map.
func MapVal(m *Map) Value { return Value{kind: KindRef, ref: m} }

// ClosureVal wraps a closure.
func ClosureVal(c *Closure) Value { return Value{kind: KindRef, ref: c} }

// Accessors.

// Kind returns the value's kind tag.
func (v Value) Kind() Kind { return v.kind }

// AsString returns the string payload when the value is a string.
func (v Value) AsString() (string, bool) { return v.str, v.kind == KindString }

// AsNumber returns the numeric payload when the value is a number.
func (v Value) AsNumber() (float64, bool) { return v.num, v.kind == KindNumber }

// AsList returns the list when the value wraps one.
func (v Value) AsList() (*List, bool) {
	l, ok := v.ref.(*List)
	return l, v.kind == KindRef && ok
}

// AsMap returns the map when the value wraps one.
func (v Value) AsMap() (*Map, bool) {
	m, ok := v.ref.(*Map)
	return m, v.kind == KindRef && ok
}

// AsClosure returns the closure when the value wraps one.
func (v Value) AsClosure() (*Closure, bool) {
	c, ok := v.ref.(*Closure)
	return c, v.kind == KindRef && ok
}

// List is a mutable sequence.
type List struct {
	Elems []Value
}

// Map is a string-keyed mutable dictionary.
type Map struct {
	Entries map[string]Value
}

// NewMap returns an empty Map.
func NewMap() *Map { return &Map{Entries: map[string]Value{}} }

// Keys returns sorted keys (determinism matters for generated requests).
func (m *Map) Keys() []string {
	ks := make([]string, 0, len(m.Entries))
	for k := range m.Entries {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Closure is a callback a script hands the host, with its captured
// environment.
type Closure struct {
	Fn  *FuncLit
	Env *Env
}

// Truthy implements SiteScript truthiness: null and false are falsy, the
// number 0 is falsy, "" is falsy; everything else is truthy.
func Truthy(v Value) bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool:
		return v.num != 0
	case KindNumber:
		return v.num != 0
	case KindString:
		return v.str != ""
	default:
		return true
	}
}

// ToString renders a value the way scripts see it when concatenating. A
// list or map nested deeper than maxRenderDepth (a script can make one
// contain itself) renders only down to that depth.
func ToString(v Value) string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindNumber:
		return formatNumber(v.num)
	case KindString:
		return v.str
	}
	b, _ := appendValue(nil, v, math.MaxInt, 0)
	return string(b)
}

// maxRenderDepth bounds how deeply a list or map renders as a string:
// a list that contains itself would otherwise recurse until the stack
// overflows.
const maxRenderDepth = 64

// appendValue appends ToString's rendering of v to b. It stops with a
// RuntimeError before b would grow past limit bytes, or when lists and
// maps nest deeper than maxRenderDepth.
func appendValue(b []byte, v Value, limit, depth int) ([]byte, error) {
	if v.kind != KindRef {
		s := ToString(v)
		if len(s) > limit-len(b) {
			return b, errBudget()
		}
		return append(b, s...), nil
	}
	var err error
	switch x := v.ref.(type) {
	case *List:
		if depth >= maxRenderDepth {
			return b, &RuntimeError{Msg: "value nested too deeply to render"}
		}
		b = append(b, '[')
		for i, e := range x.Elems {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(b, e, limit, depth+1); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	case *Map:
		if depth >= maxRenderDepth {
			return b, &RuntimeError{Msg: "value nested too deeply to render"}
		}
		b = append(b, '{')
		for i, k := range x.Keys() {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(b, Str(k), limit, depth+1); err != nil {
				return b, err
			}
			b = append(b, ':')
			if b, err = appendValue(b, x.Entries[k], limit, depth+1); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	case *Closure:
		b = append(b, "<fn>"...)
	default:
		b = fmt.Appendf(b, "%v", v.ref)
	}
	if len(b) > limit {
		return b, errBudget()
	}
	return b, nil
}

// formatNumber renders integers without a decimal point, like JS.
func formatNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// appendNumber appends formatNumber(f) to b.
func appendNumber(b []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// valueEquals implements == (deep for lists/maps is not needed by any
// script; reference equality applies there, like JS objects).
func valueEquals(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindBool, KindNumber:
		return a.num == b.num
	case KindString:
		return a.str == b.str
	default:
		return a.ref == b.ref
	}
}

// Env is a lexical scope.
type Env struct {
	vars   map[string]Value
	parent *Env

	// captured marks scopes referenced by a closure (and every scope the
	// closure can reach through the chain). Captured scopes outlive their
	// block and are never returned to the interpreter's scope pool.
	captured bool
}

// NewEnv returns a scope chained to parent (nil for the global scope).
func NewEnv(parent *Env) *Env {
	return &Env{vars: map[string]Value{}, parent: parent}
}

// Define creates a variable in this scope.
func (e *Env) Define(name string, v Value) { e.vars[name] = v }

// Lookup finds a variable walking up the scope chain.
func (e *Env) Lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return Value{}, false
}

// Set assigns to an existing variable; it reports whether it was found.
func (e *Env) Set(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}
