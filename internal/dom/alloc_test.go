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

// TestParseAllocs bounds what a parse allocates: the node and children
// backings plus each element's attribute map (a map header and, once it
// holds an attribute, its table), however many nodes the page has.
func TestParseAllocs(t *testing.T) {
	var page string
	for _, p := range servedPages(t, 20, "/") {
		if len(p) > len(page) {
			page = p
		}
	}
	elements := NewDocument("", Parse(page)).CountElements()
	allocs := testing.AllocsPerRun(100, func() { Parse(page) })
	if max := float64(2 + 2*elements); allocs > max {
		t.Fatalf("Parse of a %d-byte page with %d elements allocates %.0f times; want ≤%.0f", len(page), elements, allocs, max)
	}
}

// TestCensusExactOnServedPages checks that census counts exactly the
// nodes Parse builds from every page the generated web serves: a count
// too low allocates the nodes past it one by one, and one too high
// allocates node memory no node uses.
func TestCensusExactOnServedPages(t *testing.T) {
	for _, page := range servedPages(t, 200, "/", "/products", "/about", "/login") {
		elements, texts := census(page)
		nodes, children := TreeStats(Parse(page))
		if nodes != 1+elements+texts || children != elements+texts {
			t.Fatalf("census counted %d elements and %d texts; Parse built %d nodes and %d child slots from\n%s",
				elements, texts, nodes, children, page)
		}
	}
}
