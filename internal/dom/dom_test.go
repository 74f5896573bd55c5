package dom

import (
	"strings"
	"testing"
	"unsafe"
)

const samplePage = `<!DOCTYPE html>
<html>
<head>
  <title>Shop</title>
  <link rel="stylesheet" href="/main.css">
  <script src="https://www.googletagmanager.com/gtm.js"></script>
  <script>set_cookie("inline", "1");</script>
</head>
<body>
  <div id="banner" class="hero">Welcome</div>
  <a href="/products">Products</a>
  <a href="/about">About</a>
  <a name="nohref">skip me</a>
  <img src="/logo.png">
  <iframe src="https://ads.example.net/frame"></iframe>
  <!-- a comment <a href="/hidden">x</a> -->
  <div id="content"><p>Hello <span>world</span></p></div>
</body>
</html>`

func parseDoc(t *testing.T) *Document {
	t.Helper()
	return NewDocument("https://shop.example.com/", Parse(samplePage))
}

func TestParseStructure(t *testing.T) {
	d := parseDoc(t)
	if got := len(d.ByTag("script")); got != 2 {
		t.Fatalf("scripts = %d, want 2", got)
	}
	if got := withAttr(d.ByTag("a"), "href"); got != 2 {
		t.Fatalf("links = %d, want 2 (href-less <a> excluded)", got)
	}
	if got := withAttr(d.ByTag("iframe"), "src"); got != 1 {
		t.Fatalf("iframes = %d, want 1", got)
	}
}

// withAttr counts the nodes that carry a non-empty attr.
func withAttr(nodes []*Node, attr string) int {
	n := 0
	for _, node := range nodes {
		if node.Attr(attr) != "" {
			n++
		}
	}
	return n
}

// TestFirstByTag: FirstByTag is the first element ByTag lists, and nil
// for a tag the document lacks.
func TestFirstByTag(t *testing.T) {
	d := parseDoc(t)
	for _, tag := range []string{"body", "head", "a", "DIV", "script", "span"} {
		if got, want := d.FirstByTag(tag), d.ByTag(tag)[0]; got != want {
			t.Errorf("FirstByTag(%q) = %p, want ByTag's first %p", tag, got, want)
		}
	}
	if n := d.FirstByTag("table"); n != nil {
		t.Errorf("FirstByTag(\"table\") = %+v, want nil", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.FirstByTag("body") }); n != 0 {
		t.Errorf("FirstByTag allocates %v times, want 0", n)
	}
}

func TestScriptSrcAndInlineBody(t *testing.T) {
	d := parseDoc(t)
	scripts := d.ByTag("script")
	if src := scripts[0].Attr("src"); src != "https://www.googletagmanager.com/gtm.js" {
		t.Fatalf("script src = %q", src)
	}
	if body := scripts[1].InnerText(); !strings.Contains(body, `set_cookie("inline", "1")`) {
		t.Fatalf("inline body = %q", body)
	}
}

func TestByID(t *testing.T) {
	d := parseDoc(t)
	banner := d.ByID("banner")
	if banner == nil || banner.Tag != "div" {
		t.Fatalf("ByID(banner) = %+v", banner)
	}
	if banner.Attr("class") != "hero" {
		t.Fatalf("class = %q", banner.Attr("class"))
	}
	if d.ByID("nope") != nil {
		t.Fatal("ByID(nope) should be nil")
	}
}

func TestInnerText(t *testing.T) {
	d := parseDoc(t)
	content := d.ByID("content")
	if got := content.InnerText(); got != "Hello world" {
		t.Fatalf("InnerText = %q", got)
	}
}

func TestCommentsIgnored(t *testing.T) {
	d := parseDoc(t)
	for _, a := range d.ByTag("a") {
		if a.Attr("href") == "/hidden" {
			t.Fatal("link inside comment was parsed")
		}
	}
}

func TestVoidAndSelfClosing(t *testing.T) {
	root := Parse(`<div><img src="/a.png"><br/><p>text</p></div>`)
	d := NewDocument("", root)
	if len(d.ByTag("img")) != 1 || len(d.ByTag("br")) != 1 || len(d.ByTag("p")) != 1 {
		t.Fatal("void/self-closing parsing broken")
	}
	if got := d.ByTag("p")[0].InnerText(); got != "text" {
		t.Fatalf("p text = %q", got)
	}
}

func TestMalformedInputsDoNotPanic(t *testing.T) {
	inputs := []string{
		"", "<", "<<", "<div", "</unopened>", "<div><span></div>",
		"text only", "<a href=>x</a>", `<div id="unterminated`,
		"<script>never closed", "<!-- unterminated", "<!doctype",
		"< notatag", "<div id=bare>x</div>",
	}
	for _, in := range inputs {
		root := Parse(in)
		if root == nil {
			t.Fatalf("Parse(%q) returned nil", in)
		}
	}
	// Unquoted attribute values parse.
	d := NewDocument("", Parse("<div id=bare>x</div>"))
	if d.ByID("bare") == nil {
		t.Fatal("unquoted attribute value not parsed")
	}
}

// TestInnerTextLoneTextNoCopy: a script's body, its element's one text
// child, is returned as the substring of the parsed source it is, with
// no allocation.
func TestInnerTextLoneTextNoCopy(t *testing.T) {
	const open = "<script>"
	src := open + `set_cookie("a", "1");</script><p>x</p>`
	script := NewDocument("", Parse(src)).FirstByTag("script")
	got := script.InnerText()
	if got != `set_cookie("a", "1");` {
		t.Fatalf("InnerText = %q", got)
	}
	if unsafe.StringData(got) != unsafe.StringData(src[len(open):]) {
		t.Fatal("InnerText copied the script body")
	}
	if n := testing.AllocsPerRun(100, func() { _ = script.InnerText() }); n != 0 {
		t.Errorf("InnerText allocates %v times, want 0", n)
	}
}

func TestRawTextSwallowsMarkup(t *testing.T) {
	root := Parse(`<script>if (a < b) { x("</div>ish"); }</script><div id="after"></div>`)
	d := NewDocument("", root)
	if d.ByID("after") == nil {
		t.Fatal("element after script not parsed")
	}
	body := d.ByTag("script")[0].InnerText()
	if !strings.Contains(body, "a < b") {
		t.Fatalf("script body = %q", body)
	}
}

func TestMutationsAttributed(t *testing.T) {
	d := parseDoc(t)
	banner := d.ByID("banner")
	tracker := "https://cdn.tracker.example/t.js"

	d.SetText(banner, "BUY NOW", tracker)
	d.SetStyle(banner, "display", "none", tracker)
	inserted := d.Insert(banner.Parent, "div", []string{"ID"}, []string{"ad-slot"}, tracker)
	d.Remove(inserted, "https://other.example/o.js")

	if len(d.Mutations) != 4 {
		t.Fatalf("Mutations = %d", len(d.Mutations))
	}
	m := d.Mutations[0]
	if m.Kind != MutText || m.ByScript != tracker || m.Owner != "" || m.Target.ID() != "banner" {
		t.Fatalf("mutation 0 = %+v", m)
	}
	if banner.InnerText() != "BUY NOW" {
		t.Fatalf("text = %q", banner.InnerText())
	}
	if banner.Attr("style:display") != "none" {
		t.Fatalf("style = %q", banner.Attr("style:display"))
	}
	// The inserted element is owned by the inserting script, and the
	// remover is attributed with that owner — the cross-domain DOM case.
	rm := d.Mutations[3]
	if rm.Kind != MutRemove || rm.Owner != tracker || rm.ByScript != "https://other.example/o.js" {
		t.Fatalf("remove mutation = %+v", rm)
	}
	if d.ByID("ad-slot") != nil {
		t.Fatal("removed element still reachable")
	}
}

func TestInsertedElementFindable(t *testing.T) {
	d := parseDoc(t)
	body := d.ByTag("body")[0]
	d.Insert(body, "script", []string{"src"}, []string{"https://x.example/i.js"}, "https://x.example/parent.js")
	if n := len(d.ByTag("script")); n != 3 {
		t.Fatalf("scripts after insert = %d", n)
	}
}

func TestRemoveDetachedReturnsFalse(t *testing.T) {
	d := parseDoc(t)
	orphan := &Node{Kind: KindElement, Tag: "div"}
	if d.Remove(orphan, "s") {
		t.Fatal("removing detached node should return false")
	}
}

func TestAttrCaseInsensitive(t *testing.T) {
	d := NewDocument("", Parse(`<div ID="x" CLASS="y"></div>`))
	n := d.ByID("x")
	if n == nil || n.Attr("Class") != "y" {
		t.Fatal("attribute names must be case-insensitive")
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(samplePage)
	}
}

// TestCloneDeepIsolation: a pooled document is a deep copy of its
// template, and no mutation of the copy reaches the template.
func TestCloneDeepIsolation(t *testing.T) {
	tmpl := Parse(`<html><body><div id="a" class="c" style:color="c">text</div><p id="b">para</p></body></html>`)
	cd := pooledDoc(t, tmpl)
	defer cd.Release()

	if cd.Root.Parent != nil {
		t.Fatal("clone root must be detached")
	}
	sameTree(t, tmpl, cd.Root, nil)
	td := NewDocument("", tmpl)
	cn := cd.ByID("a")
	if cn == nil || cn.Attr("class") != "c" || cn.InnerText() != "text" {
		t.Fatalf("clone lost content: %+v", cn)
	}
	if cn == td.ByID("a") {
		t.Fatal("clone shares nodes with the template")
	}
	// Parent pointers must point into the clone, not the template.
	if cn.Parent == td.ByID("a").Parent {
		t.Fatal("clone child's Parent points into the template tree")
	}

	// Mutations to the clone never reach the template.
	cd.SetText(cn, "mutated", "script.js")
	cd.SetStyle(cn, "color", "dirty", "script.js")
	cd.Insert(cn, "span", []string{"id"}, []string{"new"}, "script.js")
	cd.Remove(cd.ByID("b"), "script.js")

	tn := td.ByID("a")
	if tn.InnerText() != "text" || tn.Attr("style:color") != "c" {
		t.Fatalf("template mutated through clone: text=%q color=%q", tn.InnerText(), tn.Attr("style:color"))
	}
	if td.ByID("new") != nil {
		t.Fatal("insert into clone leaked into template")
	}
	if td.ByID("b") == nil {
		t.Fatal("remove on clone leaked into template")
	}
	if len(td.Mutations) != 0 {
		t.Fatalf("template document recorded %d mutations", len(td.Mutations))
	}
}

// TestCloneOwnerPreserved: a pooled clone of a tree keeps the owner of
// a script-inserted element.
func TestCloneOwnerPreserved(t *testing.T) {
	d := NewDocument("", Parse(`<html><body><div id="p"></div></body></html>`))
	d.Insert(d.ByID("p"), "img", []string{"id"}, []string{"inj"}, "https://tracker.example/t.js")
	cd := pooledDoc(t, d.Root)
	defer cd.Release()
	n := cd.ByID("inj")
	if n == nil || n.Owner != "https://tracker.example/t.js" {
		t.Fatalf("clone lost script ownership: %+v", n)
	}
}

// TestAttrNamesLastValueWins: an attribute name given twice, in any
// case, is one attribute holding the last value, whether the parser
// reads it or Insert sets it, on plain and pooled documents alike.
func TestAttrNamesLastValueWins(t *testing.T) {
	tmpl := Parse(`<a href=x HREF=y id=l Id="m" data-k=1></a><p></p>`)
	pooled := pooledDoc(t, tmpl)
	defer pooled.Release()
	for _, d := range []*Document{NewDocument("", tmpl), pooled} {
		a := d.FirstByTag("a")
		if len(a.Attrs) != 3 || a.Attr("href") != "y" || a.Attr("HREF") != "y" || a.ID() != "m" || a.Attr("data-k") != "1" {
			t.Fatalf("<a> attributes %v; want href=y, id=m and data-k=1", a.Attrs)
		}
		n := d.Insert(d.FirstByTag("p"), "IMG", []string{"ID", "SRC", "Src", "id", "src"},
			[]string{"A", "B", "C", "D", "E"}, "https://s.example/x.js")
		if n.Tag != "img" || len(n.Attrs) != 2 || n.ID() != "D" || n.Attr("src") != "E" {
			t.Fatalf("inserted <%s> attributes %v; want id=D and src=E", n.Tag, n.Attrs)
		}
		d.SetStyle(n, "Color", "red", "https://s.example/x.js")
		d.SetStyle(n, "color", "blue", "https://s.example/x.js")
		if len(n.Attrs) != 3 || n.Attr("src") != "E" || n.Attr("style:color") != "blue" {
			t.Fatalf("after SetStyle: attributes %v", n.Attrs)
		}
	}
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

// TestParsedTreeMutationLeavesSiblingsAlone guards the children backing
// Parse shares across a tree: every element's children are carved from
// one slice, so an Insert, AppendChild or SetText on one element of an
// uncached page must reallocate its children, never write into the run
// of the element after it. Each element with children is the target once,
// on a fresh parse.
func TestParsedTreeMutationLeavesSiblingsAlone(t *testing.T) {
	parents := func(d *Document) (all, withKids []*Node) {
		d.Root.walk(func(n *Node) bool {
			all = append(all, n)
			if n.Kind == KindElement && len(n.Children) > 0 {
				withKids = append(withKids, n)
			}
			return true
		})
		return all, withKids
	}
	_, targets := parents(parseDoc(t))
	for i := range targets {
		d := parseDoc(t)
		nodes, withKids := parents(d)
		target := withKids[i]
		if cap(target.Children) != len(target.Children) {
			t.Fatalf("<%s> children carved with cap %d > len %d", target.Tag, cap(target.Children), len(target.Children))
		}
		before := make(map[*Node][]*Node, len(nodes))
		for _, n := range nodes {
			before[n] = append([]*Node(nil), n.Children...)
		}
		child := target.Children[0]
		d.Insert(target, "span", nil, nil, "https://s.example/a.js")
		target.AppendChild(&Node{Kind: KindText, Text: "appended"})
		if child.Kind == KindElement {
			d.Insert(child, "i", nil, nil, "https://s.example/a.js")
		}
		d.SetText(child, "set", "https://s.example/a.js")
		for _, n := range nodes {
			if n == target || n == child {
				continue
			}
			if len(n.Children) != len(before[n]) {
				t.Fatalf("mutating <%s> changed how many children <%s> has", target.Tag, n.Tag)
			}
			for j, c := range n.Children {
				if c != before[n][j] || c.Parent != n {
					t.Fatalf("mutating <%s> changed child %d of <%s>", target.Tag, j, n.Tag)
				}
			}
		}
	}
}
