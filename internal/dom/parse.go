package dom

import (
	"strings"
)

// voidElements never have children or closing tags.
var voidElements = map[string]bool{
	"img": true, "input": true, "br": true, "hr": true, "meta": true,
	"link": true, "area": true, "base": true, "col": true, "embed": true,
	"source": true, "track": true, "wbr": true,
}

// rawTextElements swallow their content verbatim until the closing tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// Parse builds a node tree from HTML. It covers the well-formed subset the
// synthetic web generator emits (nested elements, quoted attributes, void
// elements, raw-text script/style bodies, comments) and degrades
// gracefully on anything else: unknown constructs become text, and
// unclosed elements are closed at EOF. It never fails — a browser doesn't
// either.
//
// The tree is built in three allocations however many nodes it has:
// every node lives in one slice sized by a census of the markup, every
// node's children in a second and every element's attributes in a
// third. Each node's runs are carved with their capacity equal to their
// length, so that an AppendChild on a parsed tree reallocates rather
// than overwriting a sibling's children.
func Parse(html string) *Node {
	elements, texts, attrs := census(html)
	p := &parser{
		src:      html,
		nodes:    make([]Node, 0, 1+elements+texts),
		children: make([]*Node, 0, elements+texts),
		attrs:    make([]Attribute, 0, attrs),
	}
	root := p.newNode(Node{Kind: KindElement, Tag: "#document"})
	p.parseChildren(root, "")
	return root
}

// census returns the number of elements, text nodes and attributes
// Parse builds from html, counting a '<' before a tag-name byte as an
// element whose attributes are read as Parse reads them, and each run of
// text between markup that holds more than white space as a text node.
// It is exact for the pages the web generator serves; markup inside
// comments and raw text, a lone '<' and a repeated attribute name can
// make it miss, which costs an allocation or some unused room, never
// correctness.
func census(html string) (elements, texts, attrs int) {
	inText, hasText := true, false
	for i := 0; i < len(html); i++ {
		switch c := html[i]; {
		case c == '<':
			if hasText {
				texts++
			}
			inText, hasText = false, false
			if i+1 < len(html) && isNameChar(html[i+1]) {
				elements++
				j := tagNameEnd(html, i+1)
				for {
					name, _, next, _ := nextAttr(html, j)
					j = next
					if name == "" {
						break
					}
					attrs++
				}
				i, inText = j-1, true
			}
		case c == '>':
			inText = true
		case inText && !isSpace(c):
			hasText = true
		}
	}
	if hasText {
		texts++
	}
	return elements, texts, attrs
}

type parser struct {
	src string
	pos int

	// nodes, children and attrs are the tree's backing, sized by census.
	nodes    []Node
	children []*Node
	attrs    []Attribute
}

// newNode stores n in the node backing and returns its address; a node
// past the census is allocated on its own.
func (p *parser) newNode(n Node) *Node {
	if len(p.nodes) == cap(p.nodes) {
		m := new(Node)
		*m = n
		return m
	}
	p.nodes = append(p.nodes, n)
	return &p.nodes[len(p.nodes)-1]
}

// setChildren carves kids into the shared children backing as parent's
// children, with capacity equal to length, and points each at parent.
func (p *parser) setChildren(parent *Node, kids []*Node) {
	n := len(kids)
	if n == 0 {
		return
	}
	for _, c := range kids {
		c.Parent = parent
	}
	if cap(p.children)-len(p.children) < n {
		parent.Children = append(make([]*Node, 0, n), kids...)
		return
	}
	start := len(p.children)
	p.children = append(p.children, kids...)
	parent.Children = p.children[start : start+n : start+n]
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

// parseChildren consumes nodes until the closing tag for `until` (or EOF)
// and makes them parent's children.
func (p *parser) parseChildren(parent *Node, until string) {
	var buf [32]*Node
	kids := buf[:0]
nodes:
	for !p.eof() {
		lt := strings.IndexByte(p.src[p.pos:], '<')
		if lt < 0 {
			kids = p.appendText(kids, p.src[p.pos:])
			p.pos = len(p.src)
			break nodes
		}
		if lt > 0 {
			kids = p.appendText(kids, p.src[p.pos:p.pos+lt])
			p.pos += lt
		}
		// At '<'.
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				break nodes
			}
			p.pos += 4 + end + 3
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "<!") { // doctype etc.
			gt := strings.IndexByte(p.src[p.pos:], '>')
			if gt < 0 {
				p.pos = len(p.src)
				break nodes
			}
			p.pos += gt + 1
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "</") {
			gt := strings.IndexByte(p.src[p.pos:], '>')
			if gt < 0 {
				p.pos = len(p.src)
				break nodes
			}
			name := strings.ToLower(strings.TrimSpace(p.src[p.pos+2 : p.pos+gt]))
			p.pos += gt + 1
			if name == until {
				break nodes
			}
			continue // stray closing tag: ignore
		}
		// Opening tag.
		tag, attrs, selfClose, ok := p.parseTag()
		if !ok {
			// Lone '<' that is not a tag: treat as text.
			kids = p.appendText(kids, "<")
			p.pos++
			continue
		}
		el := p.newNode(Node{Kind: KindElement, Tag: tag, Attrs: attrs})
		kids = append(kids, el)
		if selfClose || voidElements[tag] {
			continue
		}
		if rawTextElements[tag] {
			close := "</" + tag + ">"
			idx := indexCloseTag(p.src[p.pos:], close)
			body := p.src[p.pos:]
			if idx >= 0 {
				body = body[:idx]
				p.pos += idx + len(close)
			} else {
				p.pos = len(p.src)
			}
			var text [1]*Node
			p.setChildren(el, p.appendText(text[:0], body))
			continue
		}
		p.parseChildren(el, tag)
	}
	p.setChildren(parent, kids)
}

// indexCloseTag returns the index of the first instance of close, a
// lower-case ASCII close tag, in s, matching ASCII letters in either
// case. Lowering all of s and searching that instead costs a copy of the
// rest of the page per raw-text element, and where lowering changes a
// byte length (invalid UTF-8, some non-ASCII letters) it yields an index
// into the wrong string.
func indexCloseTag(s, close string) int {
	for i := 0; i+len(close) <= len(s); i++ {
		if s[i] == '<' && lowerASCIIEqual(s[i:i+len(close)], close) {
			return i
		}
	}
	return -1
}

// lowerASCIIEqual reports whether s, with A–Z lowered, equals lower.
func lowerASCIIEqual(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// appendText appends a text node to kids unless text is all white space.
func (p *parser) appendText(kids []*Node, text string) []*Node {
	if strings.TrimSpace(text) == "" {
		return kids
	}
	return append(kids, p.newNode(Node{Kind: KindText, Text: text}))
}

// parseTag parses "<name attr=... >" starting at p.pos (which points at
// '<'). On success p.pos is just past '>'.
func (p *parser) parseTag() (tag string, attrs []Attribute, selfClose, ok bool) {
	start := p.pos + 1
	i := tagNameEnd(p.src, start)
	if i == start {
		return "", nil, false, false
	}
	tag = strings.ToLower(p.src[start:i])
	first := len(p.attrs)
	for {
		name, value, next, sc := nextAttr(p.src, i)
		i = next
		if name == "" {
			selfClose = sc
			break
		}
		name = strings.ToLower(name)
		if j := attrIndex(p.attrs[first:], name); j >= 0 {
			p.attrs[first+j].Value = value
		} else {
			p.attrs = append(p.attrs, Attribute{Name: name, Value: value})
		}
	}
	p.pos = i
	if n := len(p.attrs); n > first {
		attrs = p.attrs[first:n:n]
	}
	return tag, attrs, selfClose, true
}

// tagNameEnd returns the index past the tag name that starts at i.
func tagNameEnd(src string, i int) int {
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	return i
}

// nextAttr scans src from i, inside an opening tag past its name or an
// attribute, to the tag's next attribute or its end. For an attribute it
// returns its name as written, its value and the index past it. At the
// tag's end it returns an empty name and the index past '>' or "/>" (or
// len(src) at EOF), with selfClose reporting "/>".
func nextAttr(src string, i int) (name, value string, next int, selfClose bool) {
	for i < len(src) {
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i >= len(src) {
			break
		}
		if src[i] == '>' {
			return "", "", i + 1, false
		}
		if src[i] == '/' && i+1 < len(src) && src[i+1] == '>' {
			return "", "", i + 2, true
		}
		ns := i
		for i < len(src) && isAttrNameChar(src[i]) {
			i++
		}
		if i == ns {
			i++ // skip junk byte
			continue
		}
		name = src[ns:i]
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i >= len(src) || src[i] != '=' {
			return name, "", i, false // boolean attribute
		}
		i++
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i < len(src) && (src[i] == '"' || src[i] == '\'') {
			q := src[i]
			i++
			vs := i
			for i < len(src) && src[i] != q {
				i++
			}
			value = src[vs:i]
			if i < len(src) {
				i++ // closing quote
			}
			return name, value, i, false
		}
		vs := i
		for i < len(src) && !isSpace(src[i]) && src[i] != '>' {
			i++
		}
		return name, src[vs:i], i, false
	}
	return "", "", i, false
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

func isNameChar(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-'
}

func isAttrNameChar(b byte) bool {
	return isNameChar(b) || b == '_' || b == ':'
}
