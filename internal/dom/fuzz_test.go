package dom

import (
	"io"
	"strings"
	"testing"

	"cookieguard/internal/webgen"
)

// fuzzPages returns every HTML page a small generated web (with consent
// banners) serves, fetched over its fabric.
func fuzzPages(f *testing.F) []string {
	cfg := webgen.DefaultConfig(12)
	cfg.CMP = true
	w := webgen.Build(cfg)
	client := w.BuildInternet().Client()
	var pages []string
	for _, s := range w.CompleteSites() {
		for _, path := range []string{"/", "/products", "/about", "/login"} {
			resp, err := client.Get("https://" + s.Host + path)
			if err != nil {
				f.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				f.Fatal(err)
			}
			if resp.StatusCode == 200 && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
				pages = append(pages, string(body))
			}
		}
	}
	if len(pages) == 0 {
		f.Fatal("the generated web served no HTML")
	}
	return pages
}

// FuzzDOMParse checks that Parse never panics, and that a pooled clone
// of the parsed template, in an arena sized by TreeStats, equals the
// template node for node and fills the arena exactly.
func FuzzDOMParse(f *testing.F) {
	for _, p := range fuzzPages(f) {
		f.Add(p)
	}
	f.Add(arenaTestHTML)
	f.Add(`<div id="a"><p>unclosed<br/><script>x<y</script>`)
	f.Fuzz(func(t *testing.T, html string) {
		tmpl := Parse(html)
		nodes, children := TreeStats(tmpl)
		d := NewPooledDocument("https://x.example/", tmpl, nodes, children)
		sameTree(t, tmpl, d.Root, nil)
		if len(d.arena.nodes) != nodes || len(d.arena.children) != children {
			t.Fatalf("clone used %d nodes and %d child slots; TreeStats said %d and %d",
				len(d.arena.nodes), len(d.arena.children), nodes, children)
		}
		d.Release()
	})
}
