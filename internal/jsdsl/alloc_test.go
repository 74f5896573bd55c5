package jsdsl

import (
	"strings"
	"testing"
)

// containerSource returns the longest tag-manager container script the
// generated web serves: a per-site script the artifact cache misses on,
// so the crawl parses it fresh.
func containerSource(t *testing.T) string {
	t.Helper()
	var longest string
	for _, src := range servedScripts(t) {
		if strings.HasPrefix(src, "// googletagmanager container for ") && len(src) > len(longest) {
			longest = src
		}
	}
	if longest == "" {
		t.Fatal("the generated web serves no tag-manager container")
	}
	return longest
}

// TestParseAllocs bounds what a parse allocates: one slab per node kind
// the script uses, the two list backings and the Program, whatever the
// script's length. A parse that allocated per token or per node would
// make hundreds of allocations for this container.
func TestParseAllocs(t *testing.T) {
	src := containerSource(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("Parse of a %d-byte container allocates %.0f times; want one slab per node kind (≤20)", len(src), allocs)
	}
}
