package dom

import (
	"testing"
)

const arenaTestHTML = `<!DOCTYPE html>
<html>
<head><title>t</title><script src="/a.js"></script></head>
<body>
<div id="main"><div id="status">loading</div><div id="banner">Welcome</div></div>
<a href="/products">Products</a>
<img src="/logo.png">
</body>
</html>
`

func pooledDoc(t *testing.T, tmpl *Node) *Document {
	t.Helper()
	nodes, children := TreeStats(tmpl)
	return NewPooledDocument("https://x.example/", tmpl, nodes, children)
}

// sameTree asserts structural equality of two subtrees (kind, tag, text,
// owner, attrs, child shape) and correct parent wiring in got.
func sameTree(t *testing.T, want, got, gotParent *Node) {
	t.Helper()
	if got.Kind != want.Kind || got.Tag != want.Tag || got.Text != want.Text || got.Owner != want.Owner {
		t.Fatalf("node mismatch: want %+v got %+v", want, got)
	}
	if got.Parent != gotParent {
		t.Fatalf("parent not wired for %q", got.Tag)
	}
	if len(got.Children) != len(want.Children) {
		t.Fatalf("children mismatch under %q: want %d got %d", want.Tag, len(want.Children), len(got.Children))
	}
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("attrs mismatch under %q: want %v got %v", want.Tag, want.Attrs, got.Attrs)
	}
	for _, a := range want.Attrs {
		if got.Attr(a.Name) != a.Value {
			t.Fatalf("attr %q mismatch under %q", a.Name, want.Tag)
		}
	}
	for i := range want.Children {
		sameTree(t, want.Children[i], got.Children[i], got)
	}
}

func TestPooledDocumentClonesTemplate(t *testing.T) {
	tmpl := Parse(arenaTestHTML)
	d := pooledDoc(t, tmpl)
	sameTree(t, tmpl, d.Root, nil)
	d.Release()
}

func TestPooledDocumentCOWAttrsProtectTemplate(t *testing.T) {
	tmpl := Parse(`<div id="status" style:color="blue">loading</div>`)
	d := pooledDoc(t, tmpl)
	n := d.ByID("status")
	if n == nil {
		t.Fatal("no #status in clone")
	}
	// The first write overwrites a borrowed attribute, the second adds one.
	d.SetStyle(n, "color", "red", "https://s.example/x.js")
	d.SetStyle(n, "display", "none", "https://s.example/x.js")
	if got := n.Attr("style:color"); got != "red" {
		t.Fatalf("clone style = %q", got)
	}
	// The shared template must be untouched.
	tn := NewDocument("", tmpl).ByID("status")
	if got := tn.Attr("style:color"); got != "blue" {
		t.Fatalf("template mutated through clone: color=%q", got)
	}
	if got := tn.Attr("style:display"); got != "" {
		t.Fatalf("template mutated through clone: display=%q", got)
	}
	d.Release()
}

func TestPooledDocumentAppendDoesNotClobberSiblings(t *testing.T) {
	tmpl := Parse(arenaTestHTML)
	d := pooledDoc(t, tmpl)
	main := d.ByID("main")
	// #main's children are carved from the shared arena backing; an
	// insert must move the run, not overwrite the next sibling's region.
	before := d.Root.findByID("banner").Text
	d.Insert(main, "div", []string{"id"}, []string{"injected"}, "https://s.example/x.js")
	if d.ByID("injected") == nil {
		t.Fatal("inserted node not reachable")
	}
	if d.ByID("banner") == nil {
		t.Fatal("sibling lost after insert")
	}
	_ = before
	// The <a> element outside #main must also be intact.
	if links := d.ByTag("a"); len(links) != 1 || links[0].Attr("href") != "/products" {
		t.Fatalf("sibling region clobbered: links=%v", links)
	}
	d.Release()
}

func TestArenaReuseProducesFreshClones(t *testing.T) {
	tmpl := Parse(arenaTestHTML)
	d1 := pooledDoc(t, tmpl)
	n := d1.ByID("status")
	d1.SetText(n, "mutated", "s")
	d1.SetStyle(n, "color", "dirty", "s")
	d1.Release()

	// A post-release clone (likely reusing the same arena) must match the
	// pristine template, not the released mutation.
	d2 := pooledDoc(t, tmpl)
	sameTree(t, tmpl, d2.Root, nil)
	if got := d2.ByID("status").Attr("style:color"); got != "" {
		t.Fatalf("released mutation leaked into new clone: %q", got)
	}
	d2.Release()
}

func TestTreeStats(t *testing.T) {
	tmpl := Parse(arenaTestHTML)
	nodes, children := TreeStats(tmpl)
	count := 0
	var kids int
	tmpl.walk(func(n *Node) bool {
		count++
		kids += len(n.Children)
		return true
	})
	if nodes != count || children != kids {
		t.Fatalf("TreeStats = (%d,%d), walk says (%d,%d)", nodes, children, count, kids)
	}
	// #document, div, two p and their two texts; the root's one child,
	// the div's two and each p's one.
	if nodes, children := TreeStats(Parse("<div><p>a</p><p>b</p></div>")); nodes != 6 || children != 5 {
		t.Fatalf("TreeStats = (%d,%d), want (6,5)", nodes, children)
	}
}

func TestReleaseWithoutArenaIsNoop(t *testing.T) {
	d := NewDocument("u", Parse(arenaTestHTML))
	d.Release() // plain documents ignore Release
	if d.Root == nil {
		t.Fatal("Release dropped a plain document's tree")
	}
}
