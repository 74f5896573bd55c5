package dom

import (
	"sync"
	"sync/atomic"
)

// Arena is the backing storage for one pooled document: the Document
// itself, its clone of a template and everything scripts add to it.
// Every cloned node lives in one nodes slice and every child pointer in
// one children slice, so a whole-tree clone costs two (reused)
// allocations instead of one per node. Arenas cycle through a package
// pool — NewPooledDocument draws one, Document.Release returns it — so a
// page visit allocates nothing in this package once the pool is warm.
type Arena struct {
	doc      Document
	nodes    []Node
	children []*Node

	// made, slots and attrs hold what scripts add: Insert's elements and
	// SetText's text nodes, the child runs those two build, and the
	// attribute runs of Insert and SetStyle. They are slabs
	// runs are carved from (carve), which never move, so every node and
	// run stays where it is until Release.
	made  []Node
	slots []*Node
	attrs []Attribute

	// styles holds the "style:<prop>" names SetStyle has built, kept
	// across visits.
	styles []string
}

// maxStyleNames bounds Arena.styles; SetStyle builds names past it anew.
const maxStyleNames = 8

// ensure guarantees a released arena capacity for a clone of the given
// size. Capacity is reserved up front so the slices never grow
// mid-clone: node pointers handed out during cloning point into the
// backing arrays and must stay valid.
func (a *Arena) ensure(nodes, children int) {
	if cap(a.nodes) < nodes {
		a.nodes = make([]Node, 0, nodes)
	}
	if cap(a.children) < children {
		a.children = make([]*Node, 0, children)
	}
}

// carve returns a run of n elements of *slab, with its capacity equal to
// its length. A slab without room is replaced by a fresh one of at
// least twice its size instead of grown, so runs carved before stay
// where they are; the arena keeps the newest, largest slab.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n, 16))
	}
	start := len(s)
	s = s[:start+n]
	*slab = s
	return s[start : start+n : start+n]
}

// empty zeroes s and returns it with length zero, so a pooled arena
// keeps no value of the last visit alive.
func empty[T any](s []T) []T {
	clear(s)
	return s[:0]
}

var (
	arenaPool = sync.Pool{New: func() any {
		arenaAllocated.Add(1)
		return new(Arena)
	}}
	arenaAllocated atomic.Uint64
	arenaAcquired  atomic.Uint64
)

// ArenaPoolStats reports how many arenas were ever allocated and how many
// acquisitions the pool served; acquired−allocated is the reuse count.
func ArenaPoolStats() (allocated, acquired uint64) {
	return arenaAllocated.Load(), arenaAcquired.Load()
}

// TreeStats returns the node count and total child-slot count of the
// subtree rooted at n. Callers that clone a shared template repeatedly
// compute this once and pass it to NewPooledDocument.
func TreeStats(n *Node) (nodes, children int) {
	nodes = 1
	children += len(n.Children)
	for _, c := range n.Children {
		cn, cc := TreeStats(c)
		nodes += cn
		children += cc
	}
	return nodes, children
}

// NewPooledDocument deep-clones root into a pooled arena and returns a
// Document, itself held in the arena, whose Release hands the arena back.
// nodes/children must be TreeStats(root). The clone shares the
// template's attribute runs copy-on-write: reads see identical values,
// and the first write (SetStyle) copies the run into the arena,
// so the shared template is never written through.
func NewPooledDocument(url string, root *Node, nodes, children int) *Document {
	arenaAcquired.Add(1)
	a := arenaPool.Get().(*Arena)
	a.ensure(nodes, children)
	a.doc = Document{URL: url, Mutations: a.doc.Mutations, arena: a}
	a.doc.Root = cloneInto(a, root, nil)
	return &a.doc
}

// Release returns the document's arena (when it has one) to the pool.
// The caller owns the lifecycle: after Release neither the document nor
// any of its nodes or mutations may be touched again — the arena is
// overwritten by the next pooled document. Documents without an arena
// (NewDocument) ignore Release.
func (d *Document) Release() {
	a := d.arena
	if a == nil {
		return
	}
	a.doc = Document{Mutations: empty(d.Mutations)}
	a.nodes, a.children = empty(a.nodes), empty(a.children)
	a.made, a.slots, a.attrs = empty(a.made), empty(a.slots), empty(a.attrs)
	arenaPool.Put(a)
}

// cloneInto copies src into the arena, carving the node and its child
// slots from the backing slices. Child slices use full slice expressions
// so a later insert moves the run instead of clobbering a sibling's
// region.
func cloneInto(a *Arena, src, parent *Node) *Node {
	a.nodes = append(a.nodes, Node{
		Kind:        src.Kind,
		Tag:         src.Tag,
		Attrs:       src.Attrs,
		Text:        src.Text,
		Owner:       src.Owner,
		Parent:      parent,
		sharedAttrs: len(src.Attrs) > 0,
	})
	cp := &a.nodes[len(a.nodes)-1]
	if n := len(src.Children); n > 0 {
		start := len(a.children)
		a.children = a.children[:start+n]
		cs := a.children[start : start+n : start+n]
		for i, c := range src.Children {
			cs[i] = cloneInto(a, c, cp)
		}
		cp.Children = cs
	}
	return cp
}
