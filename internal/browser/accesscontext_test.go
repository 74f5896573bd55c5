package browser

import "testing"

// TestAccessContextAllocs pins that attributing a cookie access or a
// request costs no allocation: the context carries only the innermost
// frame's script.
func TestAccessContextAllocs(t *testing.T) {
	p := &Page{URL: "https://www.shop.example/", mainFrame: true}
	p.pushFrame(frame{scriptURL: "https://tracker.example/a.js"})
	var ctx AccessContext
	if n := testing.AllocsPerRun(100, func() { ctx = p.accessContext() }); n != 0 {
		t.Errorf("accessContext: %v allocs, want 0", n)
	}
	if ctx.ScriptURL != "https://tracker.example/a.js" || !ctx.MainFrame {
		t.Errorf("ctx = %+v, want the pushed frame's script in the main frame", ctx)
	}
	p.popFrame()
	if got := p.accessContext(); got.ScriptURL != "" || got.Inline {
		t.Errorf("ctx after popFrame = %+v, want page-level", got)
	}
}
