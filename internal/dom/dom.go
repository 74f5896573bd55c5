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
	Attrs    map[string]string
	Text     string
	Children []*Node
	Parent   *Node

	// Owner is the URL of the script that created this node, or "" for
	// nodes created by the HTML parser (i.e. owned by the page).
	Owner string

	// sharedAttrs marks Attrs as borrowed from a shared template (arena
	// clones). Mutating accessors copy the map first (ownAttrs), so the
	// template's map is never written through.
	sharedAttrs bool
}

// ownAttrs makes n.Attrs privately writable: shared (template-borrowed)
// maps are copied on first write, nil maps are created.
func (n *Node) ownAttrs() {
	if n.sharedAttrs {
		m := make(map[string]string, len(n.Attrs)+1)
		for k, v := range n.Attrs {
			m[k] = v
		}
		n.Attrs = m
		n.sharedAttrs = false
	}
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
}

// Attr returns the value of an attribute ("" if absent).
func (n *Node) Attr(name string) string {
	if n.Attrs == nil {
		return ""
	}
	return n.Attrs[strings.ToLower(name)]
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

// Clone deep-copies the subtree rooted at n: element attributes,
// children, text, and ownership are all copied, and every copied child's
// Parent points into the copy. The clone's own Parent is nil — it is a
// fresh root, detached from wherever n lives.
//
// Clone is what makes DOM template caching sound: the parse-once
// template stays pristine while each page mutates its private clone.
func (n *Node) Clone() *Node {
	cp := &Node{
		Kind:  n.Kind,
		Tag:   n.Tag,
		Text:  n.Text,
		Owner: n.Owner,
	}
	if n.Attrs != nil {
		cp.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			cp.Attrs[k] = v
		}
	}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cc := c.Clone()
			cc.Parent = cp
			cp.Children[i] = cc
		}
	}
	return cp
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

// walk visits the subtree rooted at n in document order.
func (n *Node) walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.walk(f) {
			return false
		}
	}
	return true
}

// MutationKind classifies DOM mutations.
type MutationKind int

// Mutation kinds.
const (
	MutText MutationKind = iota
	MutAttr
	MutStyle
	MutInsert
	MutRemove
)

func (k MutationKind) String() string {
	switch k {
	case MutText:
		return "text"
	case MutAttr:
		return "attr"
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
	Attribute string // for MutAttr/MutStyle
	NewValue  string
}

// Document is the parsed page plus its mutation log.
type Document struct {
	URL       string
	Root      *Node
	Mutations []Mutation

	// arena backs the cloned tree for pooled documents (NewPooledDocument);
	// Release returns it. Nil for documents built from a plain Parse/Clone.
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

// CountElements returns the number of element nodes.
func (d *Document) CountElements() int {
	n := 0
	d.Root.walk(func(node *Node) bool {
		if node.Kind == KindElement {
			n++
		}
		return true
	})
	return n
}

// --- Attributed mutations (the API scripts call) ---

func (d *Document) record(m Mutation) {
	if m.Target != nil {
		m.Owner = m.Target.Owner
	}
	d.Mutations = append(d.Mutations, m)
}

// SetText replaces the text content of target, attributed to byScript.
func (d *Document) SetText(target *Node, text, byScript string) {
	target.Children = []*Node{{Kind: KindText, Text: text, Parent: target}}
	d.record(Mutation{Kind: MutText, Target: target, ByScript: byScript, NewValue: text})
}

// SetAttr sets an attribute on target, attributed to byScript.
func (d *Document) SetAttr(target *Node, name, value, byScript string) {
	target.ownAttrs()
	target.Attrs[strings.ToLower(name)] = value
	d.record(Mutation{Kind: MutAttr, Target: target, ByScript: byScript, Attribute: name, NewValue: value})
}

// SetStyle sets a style property (modelled as style:<prop> attributes).
func (d *Document) SetStyle(target *Node, prop, value, byScript string) {
	target.ownAttrs()
	target.Attrs["style:"+strings.ToLower(prop)] = value
	d.record(Mutation{Kind: MutStyle, Target: target, ByScript: byScript, Attribute: prop, NewValue: value})
}

// Insert creates a new element under parent, owned by and attributed to
// byScript, returning the node. Its attributes are keys[i]=vals[i] with
// the names lower-cased; keys are sorted, so when two of them lower-case
// to one name the later one's value is kept. The slices are only read
// during the call.
func (d *Document) Insert(parent *Node, tag string, keys, vals []string, byScript string) *Node {
	attrs := make(map[string]string, len(keys))
	for i, k := range keys {
		attrs[strings.ToLower(k)] = vals[i]
	}
	n := &Node{Kind: KindElement, Tag: strings.ToLower(tag), Attrs: attrs, Owner: byScript}
	parent.AppendChild(n)
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
