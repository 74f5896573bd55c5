// Package dom implements the minimal document object model the browser
// engine exposes to scripts: an element tree parsed from the synthetic
// web's HTML, queries by id/tag, and attributed mutations.
//
// Mutations record which script performed them and which script (or the
// page itself) owns the mutated element. That attribution feeds the
// paper's §8 pilot study, which found cross-domain scripts modifying DOM
// elements they do not own on 9.4% of sites.
package dom

import (
	"strings"
	"sync"
)

// NodeKind discriminates element and text nodes.
type NodeKind int

// Node kinds.
const (
	KindElement NodeKind = iota
	KindText
)

// Node is one DOM node. Element nodes have a Tag and Attrs; text nodes
// have Text.
type Node struct {
	Kind     NodeKind
	Tag      string
	Attrs    []Attribute
	Text     string
	Children []*Node
	Parent   *Node

	// Owner is the URL of the script that created this node, or "" for
	// nodes created by the HTML parser (i.e. owned by the page).
	Owner string

	// sharedAttrs marks Attrs as borrowed from a shared template (arena
	// clones). Document writes copy the run first (setAttr), so the
	// template's run is never written through.
	sharedAttrs bool
}

// Attribute is one attribute of an element. An element holds one
// Attribute per distinct lower-case name, in the order the names first
// appear; a name given twice keeps its last value.
type Attribute struct {
	Name, Value string
}

// Attr returns the value of an attribute ("" if absent).
func (n *Node) Attr(name string) string {
	if i := attrIndex(n.Attrs, strings.ToLower(name)); i >= 0 {
		return n.Attrs[i].Value
	}
	return ""
}

// attrIndex returns the index of the attribute named name in attrs, or -1.
func attrIndex(attrs []Attribute, name string) int {
	for i := range attrs {
		if attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// putAttr sets name to value in attrs, appending it when attrs lacks the
// name, and returns the run.
func putAttr(attrs []Attribute, name, value string) []Attribute {
	if i := attrIndex(attrs, name); i >= 0 {
		attrs[i].Value = value
		return attrs
	}
	return append(attrs, Attribute{Name: name, Value: value})
}

// ID returns the element's id attribute.
func (n *Node) ID() string { return n.Attr("id") }

// textBufPool recycles InnerText's scratch buffer: inline-script bodies
// are re-serialized from the DOM on every page that executes them, and
// only the final string needs to outlive the call.
var textBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// InnerText concatenates the text content of the subtree.
func (n *Node) InnerText() string {
	bp := textBufPool.Get().(*[]byte)
	buf := n.appendText((*bp)[:0])
	s := string(buf)
	*bp = buf
	textBufPool.Put(bp)
	return s
}

func (n *Node) appendText(buf []byte) []byte {
	if n.Kind == KindText {
		return append(buf, n.Text...)
	}
	for _, c := range n.Children {
		buf = c.appendText(buf)
	}
	return buf
}

// AppendChild attaches child to n.
func (n *Node) AppendChild(child *Node) {
	child.Parent = n
	n.Children = append(n.Children, child)
}

// RemoveChild detaches child from n; it reports whether it was present.
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			return true
		}
	}
	return false
}

// MutationKind classifies DOM mutations.
type MutationKind int

// Mutation kinds.
const (
	MutText MutationKind = iota
	MutStyle
	MutInsert
	MutRemove
)

func (k MutationKind) String() string {
	switch k {
	case MutText:
		return "text"
	case MutStyle:
		return "style"
	case MutInsert:
		return "insert"
	case MutRemove:
		return "remove"
	default:
		return "unknown"
	}
}

// Mutation is one attributed DOM modification.
type Mutation struct {
	Kind      MutationKind
	Target    *Node
	Owner     string // script URL owning the target ("" = the page)
	ByScript  string // script URL performing the mutation
	Attribute string // for MutStyle
	NewValue  string
}

// Document is the parsed page plus its mutation log.
type Document struct {
	URL       string
	Root      *Node
	Mutations []Mutation

	// arena holds everything a pooled document allocates
	// (NewPooledDocument); Release returns it. Nil for documents built
	// by NewDocument, which allocate each node they add.
	arena *Arena
}

// NewDocument wraps a root node (usually from Parse).
func NewDocument(url string, root *Node) *Document {
	return &Document{URL: url, Root: root}
}

// ByID returns the first element with the given id, or nil.
func (d *Document) ByID(id string) *Node {
	return d.Root.findByID(id)
}

func (n *Node) findByID(id string) *Node {
	if n.Kind == KindElement && n.ID() == id {
		return n
	}
	for _, c := range n.Children {
		if f := c.findByID(id); f != nil {
			return f
		}
	}
	return nil
}

// ByTag returns all elements with the given tag, in document order.
func (d *Document) ByTag(tag string) []*Node { return d.AppendByTag(nil, tag) }

// AppendByTag appends all elements with the given tag to dst, in
// document order, and returns the extended slice. The list is a
// snapshot: elements inserted later do not join it.
func (d *Document) AppendByTag(dst []*Node, tag string) []*Node {
	return d.Root.collectTag(strings.ToLower(tag), dst)
}

func (n *Node) collectTag(tag string, out []*Node) []*Node {
	if n.Kind == KindElement && n.Tag == tag {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = c.collectTag(tag, out)
	}
	return out
}

// FirstByTag returns the first element with the given tag in document
// order, or nil: ByTag(tag)[0] without collecting the rest.
func (d *Document) FirstByTag(tag string) *Node {
	return d.Root.findTag(strings.ToLower(tag))
}

func (n *Node) findTag(tag string) *Node {
	if n.Kind == KindElement && n.Tag == tag {
		return n
	}
	for _, c := range n.Children {
		if f := c.findTag(tag); f != nil {
			return f
		}
	}
	return nil
}

// --- Attributed mutations (the API scripts call) ---

func (d *Document) record(m Mutation) {
	if m.Target != nil {
		m.Owner = m.Target.Owner
	}
	d.Mutations = append(d.Mutations, m)
}

// newNode returns a node for the document to fill in: carved from the
// arena for a pooled document, allocated otherwise.
func (d *Document) newNode() *Node {
	if d.arena == nil {
		return new(Node)
	}
	return &carve(&d.arena.made, 1)[0]
}

// newSlots returns n child slots, carved from the arena for a pooled
// document, allocated otherwise.
func (d *Document) newSlots(n int) []*Node {
	if d.arena == nil {
		return make([]*Node, n)
	}
	return carve(&d.arena.slots, n)
}

// newAttrs returns a run of n attributes, carved from the arena for a
// pooled document, allocated otherwise.
func (d *Document) newAttrs(n int) []Attribute {
	if d.arena == nil {
		return make([]Attribute, n)
	}
	return carve(&d.arena.attrs, n)
}

// setAttr sets the lower-case attribute name on n to value. A run
// borrowed from a template, or one that lacks the name, is first copied
// into a run of the document's own.
func (d *Document) setAttr(n *Node, name, value string) {
	i := attrIndex(n.Attrs, name)
	if i < 0 || n.sharedAttrs {
		size := len(n.Attrs)
		if i < 0 {
			i = size
			size++
		}
		run := d.newAttrs(size)
		copy(run, n.Attrs)
		run[i].Name = name
		n.Attrs, n.sharedAttrs = run, false
	}
	n.Attrs[i].Value = value
}

// appendChild attaches child to parent. A pooled document moves a full
// child run into the arena, with room for as many inserts again.
func (d *Document) appendChild(parent, child *Node) {
	if kids := parent.Children; d.arena != nil && len(kids) == cap(kids) {
		run := d.newSlots(2*len(kids) + 1)
		parent.Children = run[:copy(run, kids)]
	}
	parent.AppendChild(child)
}

// SetText replaces the text content of target, attributed to byScript.
func (d *Document) SetText(target *Node, text, byScript string) {
	t := d.newNode()
	*t = Node{Kind: KindText, Text: text, Parent: target}
	kids := d.newSlots(1)
	kids[0] = t
	target.Children = kids
	d.record(Mutation{Kind: MutText, Target: target, ByScript: byScript, NewValue: text})
}

// SetStyle sets a style property (modelled as style:<prop> attributes).
func (d *Document) SetStyle(target *Node, prop, value, byScript string) {
	d.setAttr(target, d.styleName(strings.ToLower(prop)), value)
	d.record(Mutation{Kind: MutStyle, Target: target, ByScript: byScript, Attribute: prop, NewValue: value})
}

// styleName returns "style:"+prop. A pooled document reuses the name its
// arena built on an earlier visit, so a warm page builds no string.
func (d *Document) styleName(prop string) string {
	a := d.arena
	if a == nil {
		return "style:" + prop
	}
	for _, name := range a.styles {
		if name[len("style:"):] == prop {
			return name
		}
	}
	name := "style:" + prop
	if len(a.styles) < maxStyleNames {
		a.styles = append(a.styles, name)
	}
	return name
}

// Insert creates a new element under parent, owned by and attributed to
// byScript, returning the node. Its attributes are keys[i]=vals[i] with
// the names lower-cased; keys are sorted, so when two of them lower-case
// to one name the later one's value is kept. The slices are only read
// during the call.
func (d *Document) Insert(parent *Node, tag string, keys, vals []string, byScript string) *Node {
	var attrs []Attribute
	if len(keys) > 0 {
		attrs = d.newAttrs(len(keys))[:0]
		for i, k := range keys {
			attrs = putAttr(attrs, strings.ToLower(k), vals[i])
		}
	}
	n := d.newNode()
	*n = Node{Kind: KindElement, Tag: strings.ToLower(tag), Attrs: attrs, Owner: byScript}
	d.appendChild(parent, n)
	d.record(Mutation{Kind: MutInsert, Target: n, ByScript: byScript})
	return n
}

// Remove detaches target from its parent, attributed to byScript.
func (d *Document) Remove(target *Node, byScript string) bool {
	if target.Parent == nil {
		return false
	}
	d.record(Mutation{Kind: MutRemove, Target: target, ByScript: byScript})
	return target.Parent.RemoveChild(target)
}
