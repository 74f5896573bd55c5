package browser

import (
	"cmp"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cookieguard/internal/cookiejar"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/netsim"
)

// refRender is the document.cookie string a script on rawURL reads,
// rendered from a snapshot of the jar's live cookies by RFC 6265 §5.4:
// the non-HttpOnly cookies whose domain, path and Secure flag match,
// longer paths first, then earlier creation, then (domain, name).
func refRender(t *testing.T, live []*cookiejar.Cookie, rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	host, path := strings.ToLower(u.Hostname()), u.Path
	if path == "" {
		path = "/"
	}
	var vis []*cookiejar.Cookie
	for _, c := range live {
		switch {
		case c.HttpOnly, c.Secure && u.Scheme != "https":
		case c.HostOnly && host != c.Domain:
		case !c.HostOnly && host != c.Domain && !strings.HasSuffix(host, "."+c.Domain):
		case path != c.Path && !(strings.HasPrefix(path, c.Path) &&
			(strings.HasSuffix(c.Path, "/") || path[len(c.Path)] == '/')):
		default:
			vis = append(vis, c)
		}
	}
	slices.SortFunc(vis, func(a, b *cookiejar.Cookie) int {
		return cmp.Or(len(b.Path)-len(a.Path), a.Created.Compare(b.Created),
			strings.Compare(a.Domain, b.Domain), strings.Compare(a.Name, b.Name))
	})
	parts := make([]string, len(vis))
	for i, c := range vis {
		parts[i] = c.Name + "=" + c.Value
	}
	return strings.Join(parts, "; ")
}

// logHost is a page's Host that keeps what scripts log.
type logHost struct {
	*hostBinding
	logs []string
}

func (h *logHost) Log(msg string) { h.logs = append(h.logs, msg) }

// readProgram reads document.cookie through every builtin that reads it.
var readProgram = jsdsl.MustParse(`
log(doc_cookie());
let all = get_all_cookies();
log(str(len(all)));
for (k in all) { log(k + "=" + all[k]); log(get_cookie(k)); }
log(str(get_cookie("a") == null) + str(get_cookie("b") == null) + str(get_cookie("c") == null));`)

// wantReadLogs is what readProgram logs on a page whose document.cookie
// is render, derived from ParseCookieString(render).
func wantReadLogs(render string) []string {
	names, values := jsdsl.ParseCookieString(render)
	want := []string{render, strconv.Itoa(len(names))}
	slices.Sort(names)
	for _, n := range names {
		want = append(want, n+"="+values[n], values[n])
	}
	absent := ""
	for _, n := range []string{"a", "b", "c"} {
		_, ok := values[n]
		absent += strconv.FormatBool(!ok)
	}
	return append(want, absent)
}

// FuzzDocCookiePairs checks the document.cookie read path against a
// reference render: ops is a sequence of two-byte steps (document.cookie,
// Set-Cookie and cookieStore writes of the cookies a, b and c with
// varying Path, Domain, Max-Age, Secure and HttpOnly, and clock
// advances) over two page URLs whose hosts and paths overlap, and value
// is the written value. After every step, on both pages, the pairs
// GetDocumentCookie appends to a caller's buffer join to the reference
// render of the jar's live cookies and leave the buffer's own pairs
// alone, and get_cookie, get_all_cookies and doc_cookie read what
// ParseCookieString reads from the render.
func FuzzDocCookiePairs(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 0, 3, 1, 30, 3, 3, 0, 0}, "v")
	f.Add([]byte{1, 28, 5, 4, 2, 2, 0, 2, 3, 6, 14, 31, 7, 29, 3, 120}, "GA1.2.3.4")
	f.Add([]byte{8, 0, 12, 0, 16, 1, 36, 2, 3, 10, 10, 0, 10, 1, 3, 200}, " x=y ")
	f.Add([]byte{33, 1, 65, 2, 74, 0, 0, 55, 4, 55, 2, 82, 3, 90}, "a b;Path=/")
	f.Fuzz(func(t *testing.T, ops []byte, value string) {
		if len(ops) > 128 {
			ops = ops[:128] // 64 steps; longer inputs only slow each exec
		}
		b, err := New(Options{Internet: netsim.New()})
		if err != nil {
			t.Fatal(err)
		}
		urls := [2]string{"https://www.shop.example/app/page", "http://shop.example/"}
		var pages [2]*Page
		for i, u := range urls {
			pages[i] = newPage(b, u, true)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			k, a := ops[i], ops[i+1]
			p := pages[k/4%2]
			ctx := p.accessContext()
			name := []string{"a", "b", "c"}[a%3]
			path := []string{"", "/", "/app"}[a/3%3]
			domain := []string{"", "shop.example"}[a/9%2]
			maxAge := []int64{0, -1, 5, 100}[k/8%4]
			secure := k/32%2 == 1
			val := value + strconv.Itoa(i)
			line := name + "=" + val
			if path != "" {
				line += "; Path=" + path
			}
			if domain != "" {
				line += "; Domain=" + domain
			}
			if maxAge != 0 {
				line += "; Max-Age=" + strconv.FormatInt(maxAge, 10)
			}
			if secure {
				line += "; Secure"
			}
			switch k % 4 {
			case 0:
				b.api.SetCookie(ctx, cookiejar.SourceDocument, line)
			case 1:
				if k/64%2 == 1 {
					line += "; HttpOnly"
				}
				u, _ := url.Parse(p.URL)
				b.jar.SetFromHeader(u, line)
			case 2:
				b.api.SetCookie(ctx, cookiejar.SourceCookieStore, RecordAssignment(jsdsl.CookieRecord{
					Name: name, Value: val, Domain: domain, Path: path, MaxAge: maxAge, Secure: secure}))
			case 3:
				b.clock.AdvanceMillis(float64(a) * 1000)
			}
			for _, p := range pages {
				ctx := p.accessContext()
				caller := jsdsl.CookiePair{Name: "caller", Value: "owned"}
				// Twice: the second read is a memo hit.
				for range 2 {
					got := b.api.GetDocumentCookie(ctx, []jsdsl.CookiePair{caller})
					want := refRender(t, b.jar.All(), p.URL)
					if got[0] != caller {
						t.Fatalf("step %d: the read overwrote the caller's pair: %+v", i/2, got[0])
					}
					parts := make([]string, 0, len(got)-1)
					for _, pr := range got[1:] {
						parts = append(parts, pr.Name+"="+pr.Value)
					}
					if s := strings.Join(parts, "; "); s != want {
						t.Fatalf("step %d, %s: pairs join to %q; reference render %q", i/2, p.URL, s, want)
					}
				}
				h := &logHost{hostBinding: &p.binding}
				in := jsdsl.AcquireInterp(h)
				if err := in.Run(readProgram); err != nil {
					t.Fatal(err)
				}
				in.Release()
				if want := wantReadLogs(refRender(t, b.jar.All(), p.URL)); !slices.Equal(h.logs, want) {
					t.Fatalf("step %d, %s: the cookie builtins read %q; want %q", i/2, p.URL, h.logs, want)
				}
			}
		}
	})
}
