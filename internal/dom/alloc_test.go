package dom

import (
	"io"
	"strings"
	"testing"

	"cookieguard/internal/webgen"
)

// servedPages returns every HTML page at the given paths of the complete
// sites of a generated web of n sites with consent managers.
func servedPages(t testing.TB, n int, paths ...string) []string {
	t.Helper()
	cfg := webgen.DefaultConfig(n)
	cfg.CMP = true
	w := webgen.Build(cfg)
	client := w.BuildInternet().Client()
	var pages []string
	for _, s := range w.CompleteSites() {
		for _, path := range paths {
			resp, err := client.Get("https://" + s.Host + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == 200 && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
				pages = append(pages, string(body))
			}
		}
	}
	return pages
}

// TestParseAllocs bounds what a parse allocates: the node, children and
// attribute backings, however many nodes and attributes the page has.
func TestParseAllocs(t *testing.T) {
	var page string
	for _, p := range servedPages(t, 20, "/") {
		if len(p) > len(page) {
			page = p
		}
	}
	const max = 3
	if allocs := testing.AllocsPerRun(100, func() { Parse(page) }); allocs > max {
		t.Fatalf("Parse of a %d-byte page allocates %.0f times; want ≤%d", len(page), allocs, max)
	}
}

// TestCensusExactOnServedPages checks that census counts exactly the
// nodes and attributes Parse builds from every page the generated web
// serves: a count too low allocates past the backing, and one too high
// allocates memory no node uses.
func TestCensusExactOnServedPages(t *testing.T) {
	for _, page := range servedPages(t, 200, "/", "/products", "/about", "/login") {
		elements, texts, attrs := census(page)
		root := Parse(page)
		nodes, children := TreeStats(root)
		parsed := 0
		root.walk(func(n *Node) bool {
			parsed += len(n.Attrs)
			return true
		})
		if nodes != 1+elements+texts || children != elements+texts || parsed != attrs {
			t.Fatalf("census counted %d elements, %d texts and %d attributes; Parse built %d nodes, %d child slots and %d attributes from\n%s",
				elements, texts, attrs, nodes, children, parsed, page)
		}
	}
}

// TestWarmPooledDocumentAllocs: once the arena pool is warm, a page's
// document — its clone, every kind of script mutation and its release —
// allocates nothing.
func TestWarmPooledDocumentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects on purpose under the race detector")
	}
	tmpl := Parse(arenaTestHTML)
	nodes, children := TreeStats(tmpl)
	keys, vals := []string{"class", "id"}, []string{"ad", "slot"}
	const by = "https://s.example/x.js"
	allocs := testing.AllocsPerRun(100, func() {
		d := NewPooledDocument("https://x.example/", tmpl, nodes, children)
		status, main := d.ByID("status"), d.ByID("main")
		d.SetText(status, "ready", by)
		d.SetStyle(status, "color", "red", by)
		d.SetStyle(status, "color", "blue", by)
		d.SetStyle(status, "display", "block", by)
		for range 4 {
			d.Insert(main, "div", keys, vals, by)
		}
		d.Remove(d.ByID("banner"), by)
		d.Release()
	})
	if allocs != 0 {
		t.Fatalf("a warm pooled document allocates %v times per page; want 0", allocs)
	}
}
