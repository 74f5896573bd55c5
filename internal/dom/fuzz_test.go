package dom

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzDOMParse checks that Parse never panics, that a pooled clone of
// the parsed template, in an arena sized by TreeStats, equals the
// template node for node and fills the arena exactly, that SetStyle on
// every element of the clone, overwriting each style the template gives
// it and adding one, leaves the template's attributes as they were, and that indexCloseTag finds the raw-text
// close tags where a search of the input with its ASCII letters lowered
// does.
func FuzzDOMParse(f *testing.F) {
	pages := servedPages(f, 12, "/", "/products", "/about", "/login")
	if len(pages) == 0 {
		f.Fatal("the generated web served no HTML")
	}
	for _, p := range pages {
		f.Add(p)
	}
	f.Add(arenaTestHTML)
	f.Add(`<div id="a"><p>unclosed<br/><script>x<y</script>`)
	f.Add("<SCRIPT>a</ScRiPt><style>\u212a</STYLE>")
	f.Add("<script>\xff</script><script>İ</script>")
	f.Add(`<p id="x" style:color="red" STYLE:Top=1>a</p><div style:new="2"></div>`)
	f.Fuzz(func(t *testing.T, html string) {
		tmpl := Parse(html)
		nodes, children := TreeStats(tmpl)
		d := NewPooledDocument("https://x.example/", tmpl, nodes, children)
		sameTree(t, tmpl, d.Root, nil)
		if len(d.arena.nodes) != nodes || len(d.arena.children) != children {
			t.Fatalf("clone used %d nodes and %d child slots; TreeStats said %d and %d",
				len(d.arena.nodes), len(d.arena.children), nodes, children)
		}
		var before []string
		tmpl.walk(func(n *Node) bool {
			before = append(before, fmt.Sprint(n.Attrs))
			return true
		})
		d.Root.walk(func(n *Node) bool {
			if n.Kind == KindElement {
				var props []string
				for _, a := range n.Attrs {
					if prop, ok := strings.CutPrefix(a.Name, "style:"); ok && prop == strings.ToLower(prop) {
						props = append(props, prop)
					}
				}
				for _, prop := range append(props, "new") {
					d.SetStyle(n, prop, "set", "https://s.example/x.js")
				}
				for _, prop := range append(props, "new") {
					if n.Attr("style:"+prop) != "set" {
						t.Fatalf("<%s> reads %v after SetStyle", n.Tag, n.Attrs)
					}
				}
			}
			return true
		})
		i := 0
		tmpl.walk(func(n *Node) bool {
			if got := fmt.Sprint(n.Attrs); got != before[i] {
				t.Fatalf("<%s> of the template holds %s after writes to its clone; was %s", n.Tag, got, before[i])
			}
			i++
			return true
		})
		d.Release()
		lower := []byte(html)
		for i, c := range lower {
			if 'A' <= c && c <= 'Z' {
				lower[i] = c + 'a' - 'A'
			}
		}
		for _, close := range []string{"</script>", "</style>"} {
			if got, want := indexCloseTag(html, close), strings.Index(string(lower), close); got != want {
				t.Fatalf("indexCloseTag(%q, %q) = %d, want %d", html, close, got, want)
			}
		}
	})
}
