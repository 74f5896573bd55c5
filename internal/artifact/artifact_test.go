package artifact

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cookieguard/internal/contenthash"
	"cookieguard/internal/netsim"
)

// rk is a response-tier key for tests that only need distinct keys.
func rk(path string) netsim.ResponseKey { return netsim.ResponseKey{Path: path} }

func TestProgramParseOnce(t *testing.T) {
	c := New()
	src := `let x = 1; log("" + x);`
	p1, err := c.Program("", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Program("", src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same content produced distinct programs")
	}
	s := c.Stats()
	if s.ProgramMisses != 1 || s.ProgramHits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", s)
	}
}

func TestProgramErrorCached(t *testing.T) {
	c := New()
	src := `let = broken (`
	if _, err := c.Program("", src); err == nil {
		t.Fatal("expected parse error")
	}
	_, err2 := c.Program("", src)
	if err2 == nil {
		t.Fatal("cached lookup lost the parse error")
	}
	if s := c.Stats(); s.ProgramMisses != 1 {
		t.Fatalf("error was re-parsed: %+v", s)
	}
}

func TestKeyForTrustsValidHash(t *testing.T) {
	src := "let a = 1;"
	h := contenthash.Sum(src)
	if got := KeyFor(h, src); got != h {
		t.Fatalf("KeyFor ignored transported hash: %q", got)
	}
	if got := KeyFor("not-a-hash", src); got != h {
		t.Fatalf("KeyFor(%q) = %q, want computed %q", "not-a-hash", got, h)
	}
	if got := KeyFor("", src); got != h {
		t.Fatalf("KeyFor(\"\") = %q, want %q", got, h)
	}
}

func TestDOMTemplateSharedAndCloneIsolated(t *testing.T) {
	c := New()
	html := `<html><body><div id="x">hello</div></body></html>`
	t1 := c.domTemplate("", html).root
	t2 := c.domTemplate("", html).root
	if t1 != t2 {
		t.Fatal("same content produced distinct templates")
	}

	doc := c.Document("https://a.example/", "", html)
	n := doc.ByID("x")
	if n == nil {
		t.Fatal("clone lost the element")
	}
	doc.SetText(n, "mutated", "https://evil.example/t.js")
	doc.SetStyle(n, "color", "red", "https://evil.example/t.js")

	// The cached template must be untouched by mutations to the clone.
	fresh := c.Document("https://b.example/", "", html)
	fn := fresh.ByID("x")
	if got := fn.InnerText(); got != "hello" {
		t.Fatalf("template leaked mutation: InnerText = %q", got)
	}
	if got := fn.Attr("style:color"); got != "" {
		t.Fatalf("template leaked attribute: color = %q", got)
	}
}

func TestResponseTierFirstPutWins(t *testing.T) {
	c := New()
	c.PutResponse(rk("k"), "first", 6)
	c.PutResponse(rk("k"), "second", 7)
	v, ok := c.GetResponse(rk("k"))
	if !ok || v.(string) != "first" {
		t.Fatalf("GetResponse = %v, %v; want first, true", v, ok)
	}
}

// TestConcurrentAccess hammers all three tiers from many goroutines; it
// exists chiefly for the race detector, but also checks convergence to
// one canonical artifact per content.
func TestConcurrentAccess(t *testing.T) {
	c := New()
	const goroutines = 16
	srcs := make([]string, 8)
	htmls := make([]string, 8)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("let v%d = %d; log(\"\" + v%d);", i, i, i)
		htmls[i] = fmt.Sprintf("<html><body><div id=\"d%d\">x</div></body></html>", i)
	}

	var wg sync.WaitGroup
	progs := make([]map[int]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			progs[g] = map[int]any{}
			for iter := 0; iter < 50; iter++ {
				for i := range srcs {
					p, err := c.Program("", srcs[i])
					if err != nil {
						t.Error(err)
						return
					}
					progs[g][i] = p
					c.domTemplate("", htmls[i])
					c.PutResponse(rk(srcs[i]), i, len(srcs[i]))
					c.GetResponse(rk(srcs[i]))
				}
			}
		}(g)
	}
	wg.Wait()

	for i := range srcs {
		for g := 1; g < goroutines; g++ {
			if progs[g][i] != progs[0][i] {
				t.Fatalf("goroutines observed different programs for content %d", i)
			}
		}
	}
	s := c.Stats()
	if s.ProgramMisses != uint64(len(srcs)) {
		// Racing writers may both parse before the first insert; the
		// canonical entry still wins, so misses can exceed len(srcs),
		// but hits must dominate.
		t.Logf("program misses = %d (benign racing parses)", s.ProgramMisses)
	}
	if s.ProgramHits == 0 || s.DOMHits == 0 || s.BodyHits == 0 {
		t.Fatalf("no hits recorded under concurrency: %+v", s)
	}
}

// heldBytes sums the charges of the entries a tier actually holds.
func heldBytes[K comparable, V any](tr *tier[K, V]) int64 {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	var n int64
	for _, e := range tr.cur {
		n += int64(e.size)
	}
	for _, e := range tr.prev {
		n += int64(e.size)
	}
	return n
}

// TestResidencyBounded inserts about ten budgets of distinct content
// into every tier at the production budgets: each tier must rotate,
// never hold more than two budgets plus its largest entry, and report
// exactly what it holds as its resident bytes.
func TestResidencyBounded(t *testing.T) {
	c := New()
	check := func(tierName string, resident, held int64, budget, largest int) {
		t.Helper()
		if resident != held {
			t.Fatalf("%s tier reports %d resident bytes but holds %d", tierName, resident, held)
		}
		if limit := int64(2*budget + largest); held > limit {
			t.Fatalf("%s tier holds %d bytes, past 2 × %d + %d", tierName, held, budget, largest)
		}
	}
	pad := strings.Repeat("x", 4000)
	largest := 0
	for i, total := 0, 0; total < 10*programBudget; i++ {
		src := fmt.Sprintf("let v%d = %q;", i, pad)
		total += len(src)
		largest = max(largest, len(src))
		if _, err := c.Program("", src); err != nil {
			t.Fatal(err)
		}
		check("program", c.Stats().ProgramResidentBytes, heldBytes(c.progs), programBudget, largest)
	}
	largest = 0
	for i, total := 0, 0; total < 10*domBudget; i++ {
		html := fmt.Sprintf("<html><body><div id=\"d%d\">%s</div></body></html>", i, pad)
		total += len(html)
		largest = max(largest, len(html))
		c.domTemplate("", html)
		check("dom", c.Stats().DOMResidentBytes, heldBytes(c.doms), domBudget, largest)
	}
	const bodySize = 4096
	for i := 0; i*bodySize < 10*bodyBudget; i++ {
		c.PutResponse(rk(fmt.Sprint("k", i)), i, bodySize)
		check("body", c.Stats().BodyResidentBytes, heldBytes(c.bodies), bodyBudget, bodySize)
	}
	s := c.Stats()
	if s.ProgramEvictions == 0 || s.DOMEvictions == 0 || s.BodyEvictions == 0 {
		t.Fatalf("ten budgets of content evicted nothing: %+v", s)
	}
}

// TestHotKeySurvivesRotations touches one key per tier every round while
// each round inserts half a budget of fresh content: the hot key must
// stay resident through every rotation and keep the artifact it was
// first given.
func TestHotKeySurvivesRotations(t *testing.T) {
	const budget = 4096
	c := NewWithBudgets(budget, budget, budget)
	hotSrc := `let hot = 1;`
	hotHTML := `<html><body><div id="hot">x</div></body></html>`
	hotBody := new(int)
	prog, _ := c.Program("", hotSrc)
	tmpl := c.domTemplate("", hotHTML).root
	c.PutResponse(rk("hot"), hotBody, 8)

	pad := strings.Repeat("y", 200)
	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			n := round*10 + i
			c.Program("", fmt.Sprintf("let v%d = %q;", n, pad))
			c.domTemplate("", fmt.Sprintf("<p id=\"p%d\">%s</p>", n, pad))
			c.PutResponse(rk(fmt.Sprint("k", n)), n, len(pad))
		}
		before := c.Stats()
		if p, _ := c.Program("", hotSrc); p != prog {
			t.Fatalf("round %d: hot program was re-parsed", round)
		}
		if got := c.domTemplate("", hotHTML).root; got != tmpl {
			t.Fatalf("round %d: hot template was re-parsed", round)
		}
		if v, ok := c.GetResponse(rk("hot")); !ok || v != hotBody {
			t.Fatalf("round %d: hot body evicted (%v, %v)", round, v, ok)
		}
		after := c.Stats()
		if after.ProgramMisses != before.ProgramMisses || after.DOMMisses != before.DOMMisses || after.BodyMisses != before.BodyMisses {
			t.Fatalf("round %d: hot key missed: %+v -> %+v", round, before, after)
		}
	}
	s := c.Stats()
	if s.ProgramEvictions == 0 || s.DOMEvictions == 0 || s.BodyEvictions == 0 {
		t.Fatalf("no tier rotated: %+v", s)
	}
}

// TestFirstWriterWinsOverPrev races inserts of fresh values against a
// key that sits in the previous generation: every writer and reader
// must get the value already resident, never its own.
func TestFirstWriterWinsOverPrev(t *testing.T) {
	tr := newTier[string, *int](100)
	first := new(int)
	tr.put("k", first, 10)
	tr.put("filler", new(int), 95) // passes the budget: "k" moves to prev
	if _, ok := tr.prev["k"]; !ok {
		t.Fatal("setup: key is not in the previous generation")
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got *int
			if g%2 == 0 {
				got = tr.put("k", new(int), 10)
			} else {
				got, _ = tr.get("k")
			}
			if got != first {
				t.Errorf("goroutine %d got a second value for a resident key", g)
			}
		}(g)
	}
	wg.Wait()
	if _, ok := tr.cur["k"]; !ok {
		t.Fatal("key was not promoted into the current generation")
	}
	if _, ok := tr.prev["k"]; ok {
		t.Fatal("promoted key is still charged to the previous generation")
	}
	if _, _, _, resident := tr.stats(); resident != 105 {
		t.Fatalf("resident = %d, want 105 (each entry charged once)", resident)
	}
}
