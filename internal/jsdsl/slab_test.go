package jsdsl

import (
	"reflect"
	"testing"
)

// TestNodeSlabsCensusExact checks that the census sizes every slab and
// list backing of every served script exactly: a slab left short falls
// back to one allocation per node, and one left with room allocates
// bytes no node uses.
func TestNodeSlabsCensusExact(t *testing.T) {
	for _, src := range servedScripts(t, 200) {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		p := &parser{toks: toks, nodeSlabs: newNodeSlabs(toks)}
		if _, err := p.parseProgram(); err != nil {
			t.Fatal(err)
		}
		s := reflect.ValueOf(p.nodeSlabs)
		for i := 0; i < s.NumField(); i++ {
			f := s.Field(i)
			if f.Kind() == reflect.Struct { // a slab
				f = f.Field(0)
			}
			if f.Len() != f.Cap() {
				t.Fatalf("%s: census sized %d, parse used %d, in\n%s", s.Type().Field(i).Name, f.Cap(), f.Len(), src)
			}
		}
	}
}

func TestCarve(t *testing.T) {
	backing := make([]int, 0, 5)
	if got := carve(&backing, nil); got != nil {
		t.Fatalf("carve of an empty list = %#v, want nil", got)
	}
	a := carve(&backing, []int{1, 2})
	b := carve(&backing, []int{3, 4, 5})
	if !reflect.DeepEqual(a, []int{1, 2}) || cap(a) != 2 || !reflect.DeepEqual(b, []int{3, 4, 5}) || cap(b) != 3 {
		t.Fatalf("carved %v (cap %d) and %v (cap %d)", a, cap(a), b, cap(b))
	}
	if &a[0] != &backing[0] || &b[0] != &backing[2] {
		t.Fatal("carved lists are not in the shared backing")
	}
	// An append to a carved list must not write into the next one.
	_ = append(a, 9)
	if b[0] != 3 {
		t.Fatalf("append to one carved list overwrote the next: %v", b)
	}
	// A full backing falls back to an exact-size list of its own.
	c := carve(&backing, []int{6})
	if !reflect.DeepEqual(c, []int{6}) || cap(c) != 1 || len(backing) != 5 {
		t.Fatalf("carve past a full backing = %v (cap %d), backing len %d", c, cap(c), len(backing))
	}
}

func TestSlabPut(t *testing.T) {
	s := makeSlab[Ident](2)
	a := s.put(Ident{Name: "a"})
	b := s.put(Ident{Name: "b"})
	c := s.put(Ident{Name: "c"}) // past the census: its own allocation
	if a != &s.buf[0] || b != &s.buf[1] || len(s.buf) != 2 {
		t.Fatal("put did not fill the slab in order")
	}
	if a.Name != "a" || b.Name != "b" || c.Name != "c" {
		t.Fatalf("put stored %q %q %q", a.Name, b.Name, c.Name)
	}
	if empty := makeSlab[Ident](0); empty.buf != nil {
		t.Fatal("a slab for no nodes allocated")
	}
}
