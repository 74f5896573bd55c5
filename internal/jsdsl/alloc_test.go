package jsdsl

import (
	"strings"
	"testing"

	"cookieguard/internal/urlutil"
)

// containerSource returns the longest tag-manager container script the
// generated web serves: a per-site script the artifact cache misses on,
// so the crawl parses it fresh.
func containerSource(t *testing.T) string {
	t.Helper()
	var longest string
	for _, src := range servedScripts(t, 200) {
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

// urlHost builds each beacon URL as the browser does and keeps the last.
type urlHost struct {
	NopHost
	url string
}

func (h *urlHost) Send(u string, keys, vals []string) { h.url = urlutil.WithParams(u, keys, vals) }

// TestSendAllocs pins the cost of a beacon on a warm interpreter: send
// hands the host the map's sorted keys and string values from the
// interpreter's scratch, so the URL the host builds is the one
// allocation.
func TestSendAllocs(t *testing.T) {
	h := &urlHost{}
	in := NewInterp(h)
	defer in.Release()
	m := in.newMap()
	m.Entries["b"] = Str("GA1.2.123.456")
	m.Entries["a"] = Str("x y")
	m.Entries["u"] = Str(h.PageURL())
	args := []Value{Str("https://t.example/c"), MapVal(m)}
	send := builtins["send"]
	if _, err := send(in, args); err != nil {
		t.Fatal(err)
	}
	if want := "https://t.example/c?a=x+y&b=GA1.2.123.456&u=https%3A%2F%2Fnop.example%2F"; h.url != want {
		t.Fatalf("send built %q, want %q", h.url, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { send(in, args) }); allocs > 1 {
		t.Fatalf("a warm send allocates %.0f times; want only the URL (1)", allocs)
	}
}

// TestConcatChainAllocs pins the cost of an identifier cookie's value on
// a warm interpreter: the _ga chain's operands, rand_id's digits and
// str's number among them, append to the interpreter's concat buffer, so
// the chain's string is its one allocation.
func TestConcatChainAllocs(t *testing.T) {
	prog, err := Parse(`let v = "GA1.2." + rand_id(9) + "." + str(now_ms());`)
	if err != nil {
		t.Fatal(err)
	}
	chain := prog.Stmts[0].(*LetStmt).Init
	in := NewInterp(&seqHost{})
	defer in.Release()
	v, err := in.eval(chain, in.globals)
	if err != nil {
		t.Fatal(err)
	}
	if want := "GA1.2.012345678.1746746266109"; ToString(v) != want {
		t.Fatalf("the _ga chain made %q, want %q", ToString(v), want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := in.eval(chain, in.globals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a warm _ga chain allocates %.0f times; want only its string (1)", allocs)
	}
}
