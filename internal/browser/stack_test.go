package browser

import (
	"fmt"
	"strings"
	"testing"

	"cookieguard/internal/cookiejar"
	"cookieguard/internal/jsdsl"
)

// stackAPI records every cookie call's attributed script.
type stackAPI struct {
	next  CookieAPI
	calls *[]stackCall
}

type stackCall struct {
	op     string
	script string
}

func (a *stackAPI) note(op string, ctx AccessContext) {
	*a.calls = append(*a.calls, stackCall{op: op, script: ctx.ScriptURL})
}

func (a *stackAPI) GetDocumentCookie(ctx AccessContext, dst []jsdsl.CookiePair) []jsdsl.CookiePair {
	a.note("get", ctx)
	return a.next.GetDocumentCookie(ctx, dst)
}

func (a *stackAPI) SetCookie(ctx AccessContext, src cookiejar.Source, s string) {
	if src == cookiejar.SourceCookieStore {
		a.note("store-set", ctx)
	} else {
		a.note("set", ctx)
	}
	a.next.SetCookie(ctx, src, s)
}

func (a *stackAPI) StoreGet(ctx AccessContext, n string) (jsdsl.CookieRecord, bool) {
	a.note("store-get", ctx)
	return a.next.StoreGet(ctx, n)
}

// TestAttributionStacks pins the request initiator and cookie-call script
// of visits that push and pop the execution stack in every way a page can:
// scripts in document order, injected scripts, deferred callbacks with and
// without async attribution, click and ClickID handlers, and a second
// visit on pooled pages.
func TestAttributionStacks(t *testing.T) {
	const (
		gtm   = "https://tagmgr.example/gtm.js"
		child = "https://tracker.example/child.js"
		leaf  = "https://deep.example/leaf.js"
		async = "https://tracker.example/async.js"
		click = "https://tracker.example/click.js"
		cmp   = "https://cmp.example/cmp.js"
	)
	scripts := map[string]string{
		gtm: `set_cookie("_gtm", "1");
inject("https://tracker.example/child.js");
send("https://collect.example/gtm", {"c": get_cookie("_gtm")});`,
		child: `set_cookie("_child", "1");
inject("https://deep.example/leaf.js");
send("https://collect.example/child", {"all": doc_cookie()});`,
		leaf: `let c = get_cookie("_child");
cookiestore_set("_leaf", "1");
send("https://collect.example/leaf", {"c": c});`,
		async: `set_cookie("_sync", "1");
defer_run(fn() {
  set_cookie("_async", "1");
  send("https://collect.example/async", {"a": get_cookie("_async")});
  defer_run(fn() { cookiestore_set("_sync", "", {"max_age": 0 - 1}); });
  inject("https://deep.example/leaf.js");
});
send("https://collect.example/sync", {});`,
		click: `on_click(fn() {
  set_cookie("_clicked", "1");
  send("https://collect.example/click", {"c": get_cookie("_clicked")});
});
set_cookie("_armed", "1");`,
		cmp: `on_click_id("accept", fn() {
  set_cookie("consent", "yes");
  inject("https://tracker.example/child.js");
});
on_click_id("reject", fn() { set_cookie("consent", "no"); });`,
	}
	page := func(srcs ...string) string {
		var b strings.Builder
		b.WriteString("<html><head>")
		for _, s := range srcs {
			if s == "" {
				b.WriteString(`<script>set_cookie("_inline", "1"); send("https://collect.example/inline", {});</script>`)
				continue
			}
			fmt.Fprintf(&b, `<script src="%s"></script>`, s)
		}
		b.WriteString(`</head><body><img src="/pixel.gif"><button id="accept">ok</button></body></html>`)
		return b.String()
	}

	type visit struct {
		html  string
		drop  bool
		after func(p *Page)
	}
	run := func(t *testing.T, pooled bool, visits []visit) []string {
		t.Helper()
		var lines []string
		for _, v := range visits {
			var calls []stackCall
			mw := func(_ *Browser, next CookieAPI) CookieAPI { return &stackAPI{next: next, calls: &calls} }
			b, err := New(Options{
				Internet:             testWeb(v.html, scripts),
				Seed:                 1,
				Pooling:              pooled,
				DropAsyncAttribution: v.drop,
				CookieMiddleware:     []CookieMiddleware{mw},
			})
			if err != nil {
				t.Fatal(err)
			}
			p, err := b.Visit("https://www.shop.example/")
			if err != nil {
				t.Fatal(err)
			}
			if v.after != nil {
				v.after(p)
			}
			for _, r := range p.Requests {
				lines = append(lines, fmt.Sprintf("req %s %s %q", r.Kind, r.URL, r.InitiatorScript))
			}
			for _, c := range calls {
				lines = append(lines, fmt.Sprintf("%s %q", c.op, c.script))
			}
			b.Release()
		}
		return lines
	}

	cases := []struct {
		name   string
		pooled bool
		visits []visit
		want   []string
	}{
		{
			name:   "nested injection",
			visits: []visit{{html: page(gtm, "")}},
			want: []string{
				`req document https://www.shop.example/ ""`,
				`req script https://tagmgr.example/gtm.js ""`,
				`req beacon https://collect.example/gtm?c=1 "https://tagmgr.example/gtm.js"`,
				`req beacon https://collect.example/inline ""`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req script https://tracker.example/child.js ""`,
				`req beacon https://collect.example/child?all=srv_pref%3Dblue%3B+_gtm%3D1%3B+_inline%3D1%3B+_child%3D1 "https://tracker.example/child.js"`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=1 "https://deep.example/leaf.js"`,
				`set "https://tagmgr.example/gtm.js"`,
				`get "https://tagmgr.example/gtm.js"`,
				`set ""`,
				`set "https://tracker.example/child.js"`,
				`get "https://tracker.example/child.js"`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
			},
		},
		{
			name:   "deferred callbacks",
			visits: []visit{{html: page(async, "")}},
			want: []string{
				`req document https://www.shop.example/ ""`,
				`req script https://tracker.example/async.js ""`,
				`req beacon https://collect.example/sync "https://tracker.example/async.js"`,
				`req beacon https://collect.example/inline ""`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req beacon https://collect.example/async?a=1 "https://tracker.example/async.js"`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=null "https://deep.example/leaf.js"`,
				`set "https://tracker.example/async.js"`,
				`set ""`,
				`set "https://tracker.example/async.js"`,
				`get "https://tracker.example/async.js"`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`store-set "https://tracker.example/async.js"`,
			},
		},
		{
			name:   "deferred callbacks, async attribution dropped",
			visits: []visit{{html: page(async, ""), drop: true}},
			want: []string{
				`req document https://www.shop.example/ ""`,
				`req script https://tracker.example/async.js ""`,
				`req beacon https://collect.example/sync "https://tracker.example/async.js"`,
				`req beacon https://collect.example/inline ""`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req beacon https://collect.example/async?a=1 ""`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=null "https://deep.example/leaf.js"`,
				`set "https://tracker.example/async.js"`,
				`set ""`,
				`set ""`,
				`get ""`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`store-set ""`,
			},
		},
		{
			name:   "click handlers",
			visits: []visit{{html: page(click, gtm), after: func(p *Page) { p.Click(); p.Click() }}},
			want: []string{
				`req document https://www.shop.example/ ""`,
				`req script https://tracker.example/click.js ""`,
				`req script https://tagmgr.example/gtm.js ""`,
				`req beacon https://collect.example/gtm?c=1 "https://tagmgr.example/gtm.js"`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req script https://tracker.example/child.js ""`,
				`req beacon https://collect.example/child?all=srv_pref%3Dblue%3B+_armed%3D1%3B+_gtm%3D1%3B+_child%3D1 "https://tracker.example/child.js"`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=1 "https://deep.example/leaf.js"`,
				`req beacon https://collect.example/click?c=1 "https://tracker.example/click.js"`,
				`req beacon https://collect.example/click?c=1 "https://tracker.example/click.js"`,
				`set "https://tracker.example/click.js"`,
				`set "https://tagmgr.example/gtm.js"`,
				`get "https://tagmgr.example/gtm.js"`,
				`set "https://tracker.example/child.js"`,
				`get "https://tracker.example/child.js"`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`set "https://tracker.example/click.js"`,
				`get "https://tracker.example/click.js"`,
				`set "https://tracker.example/click.js"`,
				`get "https://tracker.example/click.js"`,
			},
		},
		{
			name: "ClickID handlers",
			visits: []visit{{html: page(cmp, click), after: func(p *Page) {
				p.ClickID("accept")
				p.ClickID("missing")
				p.Click()
				p.ClickID("reject")
			}}},
			want: []string{
				`req document https://www.shop.example/ ""`,
				`req script https://cmp.example/cmp.js ""`,
				`req script https://tracker.example/click.js ""`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req script https://tracker.example/child.js ""`,
				`req beacon https://collect.example/child?all=srv_pref%3Dblue%3B+_armed%3D1%3B+consent%3Dyes%3B+_child%3D1 "https://tracker.example/child.js"`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=1 "https://deep.example/leaf.js"`,
				`req beacon https://collect.example/click?c=1 "https://tracker.example/click.js"`,
				`set "https://tracker.example/click.js"`,
				`set "https://cmp.example/cmp.js"`,
				`set "https://tracker.example/child.js"`,
				`get "https://tracker.example/child.js"`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`set "https://tracker.example/click.js"`,
				`get "https://tracker.example/click.js"`,
				`set "https://cmp.example/cmp.js"`,
			},
		},
		{
			name:   "pooled page reuse",
			pooled: true,
			visits: []visit{
				{html: page(gtm, async, click), after: func(p *Page) { p.Click() }},
				{html: page(cmp, ""), after: func(p *Page) { p.ClickID("accept") }},
				{html: page(async), drop: true},
			},
			want: []string{
				`req document https://www.shop.example/ ""`,
				`req script https://tagmgr.example/gtm.js ""`,
				`req beacon https://collect.example/gtm?c=1 "https://tagmgr.example/gtm.js"`,
				`req script https://tracker.example/async.js ""`,
				`req beacon https://collect.example/sync "https://tracker.example/async.js"`,
				`req script https://tracker.example/click.js ""`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req script https://tracker.example/child.js ""`,
				`req beacon https://collect.example/child?all=srv_pref%3Dblue%3B+_gtm%3D1%3B+_sync%3D1%3B+_armed%3D1%3B+_child%3D1 "https://tracker.example/child.js"`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=1 "https://deep.example/leaf.js"`,
				`req beacon https://collect.example/async?a=1 "https://tracker.example/async.js"`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=1 "https://deep.example/leaf.js"`,
				`req beacon https://collect.example/click?c=1 "https://tracker.example/click.js"`,
				`set "https://tagmgr.example/gtm.js"`,
				`get "https://tagmgr.example/gtm.js"`,
				`set "https://tracker.example/async.js"`,
				`set "https://tracker.example/click.js"`,
				`set "https://tracker.example/child.js"`,
				`get "https://tracker.example/child.js"`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`set "https://tracker.example/async.js"`,
				`get "https://tracker.example/async.js"`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`store-set "https://tracker.example/async.js"`,
				`set "https://tracker.example/click.js"`,
				`get "https://tracker.example/click.js"`,
				`req document https://www.shop.example/ ""`,
				`req script https://cmp.example/cmp.js ""`,
				`req beacon https://collect.example/inline ""`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req script https://tracker.example/child.js ""`,
				`req beacon https://collect.example/child?all=srv_pref%3Dblue%3B+_inline%3D1%3B+consent%3Dyes%3B+_child%3D1 "https://tracker.example/child.js"`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=1 "https://deep.example/leaf.js"`,
				`set ""`,
				`set "https://cmp.example/cmp.js"`,
				`set "https://tracker.example/child.js"`,
				`get "https://tracker.example/child.js"`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`req document https://www.shop.example/ ""`,
				`req script https://tracker.example/async.js ""`,
				`req beacon https://collect.example/sync "https://tracker.example/async.js"`,
				`req subresource https://www.shop.example/pixel.gif ""`,
				`req beacon https://collect.example/async?a=1 ""`,
				`req script https://deep.example/leaf.js ""`,
				`req beacon https://collect.example/leaf?c=null "https://deep.example/leaf.js"`,
				`set "https://tracker.example/async.js"`,
				`set ""`,
				`get ""`,
				`get "https://deep.example/leaf.js"`,
				`store-set "https://deep.example/leaf.js"`,
				`store-set ""`,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := run(t, c.pooled, c.visits)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("attribution:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}
