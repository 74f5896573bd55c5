package browser

import "testing"

// TestAccessContextAllocs pins the cached attribution stack: accesses
// within one frame share one stack and allocate nothing, and leaving the
// frame rebuilds it.
func TestAccessContextAllocs(t *testing.T) {
	p := &Page{URL: "https://www.shop.example/", mainFrame: true}
	p.pushFrame(frame{scriptURL: "https://tracker.example/a.js"})
	first := p.accessContext()
	var ctx AccessContext
	if n := testing.AllocsPerRun(100, func() { ctx = p.accessContext() }); n != 0 {
		t.Errorf("second accessContext in one frame: %v allocs, want 0", n)
	}
	if len(ctx.Stack) != 1 || &ctx.Stack[0] != &first.Stack[0] || cap(ctx.Stack) != 1 {
		t.Errorf("Stack = %v (cap %d), want the first call's cap-clipped slice %v", ctx.Stack, cap(ctx.Stack), first.Stack)
	}
	p.popFrame()
	if got := p.accessContext().Stack; got == nil || len(got) != 0 {
		t.Errorf("Stack after popFrame = %#v, want empty", got)
	}
}
