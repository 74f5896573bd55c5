package browser

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// TestReleasedPageHoldsNoValues: every slice a released page keeps is
// zero up to its capacity, so a pooled page holds none of the last
// visit's strings, closures or pages alive.
func TestReleasedPageHoldsNoValues(t *testing.T) {
	html := `<html><head><script src="https://tracker.example/t.js"></script>
<script>inject("https://a.example/a.js");
on_click(fn() { set_cookie("c", "1"); });
on_click_id("main", fn() { set_cookie("d", "1"); });
defer_run(fn() { set_cookie("e", "1"); });</script></head>
<body><div id="main">x</div><a href="/products">p</a>
<iframe src="https://ads.example/frame"></iframe></body></html>`
	scripts := map[string]string{
		"https://tracker.example/t.js": `set_cookie("t", "1");`,
		"https://a.example/a.js":       `set_cookie("a", "1");`,
	}
	in := testWeb(html, scripts)
	in.RegisterFunc("ads.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script>set_cookie("f", "1");</script></head><body></body></html>`)
	})
	b, err := New(Options{Internet: in, Seed: 1, Pooling: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.shop.example/")
	if err != nil {
		t.Fatal(err)
	}
	p.Click()
	p.ClickID("main")
	p.RandomLink()
	page := reflect.ValueOf(p).Elem()
	fields := []string{"Scripts", "Requests", "Frames", "execStack", "injectQ", "deferQ", "clicks", "idClicks", "interps", "paths", "nodes"}
	for _, name := range fields {
		if page.FieldByName(name).Cap() == 0 {
			t.Fatalf("the visit left the page's %s empty; the test needs it used", name)
		}
	}
	b.Release()
	for _, name := range fields {
		s := page.FieldByName(name)
		if s.Len() != 0 {
			t.Errorf("released page's %s has length %d", name, s.Len())
		}
		s = s.Slice(0, s.Cap())
		for i := 0; i < s.Len(); i++ {
			if !s.Index(i).IsZero() {
				t.Errorf("released page's %s holds %v at %d", name, s.Index(i), i)
			}
		}
	}
}

// TestPooledBrowserJarStartsEmpty: Release hands the visit's jar back to
// the pool, and the next pooled browser starts with an empty jar.
func TestPooledBrowserJarStartsEmpty(t *testing.T) {
	in := testWeb(`<html><head><script>set_cookie("k", "1");</script></head><body></body></html>`, nil)
	for i := 0; i < 3; i++ {
		b, err := New(Options{Internet: in, Seed: 1, Pooling: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := b.Jar().Len(); n != 0 {
			t.Fatalf("visit %d: a new pooled browser's jar holds %d cookies", i, n)
		}
		if _, err := b.Visit("https://www.shop.example/"); err != nil {
			t.Fatal(err)
		}
		if b.Jar().Get("https://www.shop.example/", "k") == nil {
			t.Fatalf("visit %d: the script's cookie is not in the jar", i)
		}
		b.Release()
		if b.Jar() != nil {
			t.Fatalf("visit %d: Release kept the jar", i)
		}
	}
}
