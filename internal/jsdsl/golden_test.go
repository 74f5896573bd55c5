package jsdsl

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cookieguard/internal/dom"
	"cookieguard/internal/webgen"
)

// dumpAST appends a canonical text form of v: type names, field names
// and values, with nil and empty slices told apart and no pointer
// addresses, so two programs dump equal exactly when they are
// reflect.DeepEqual.
func dumpAST(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		if v.Kind() == reflect.Interface {
			b = append(b, v.Elem().Type().String()...)
		}
		return dumpAST(b, v.Elem())
	case reflect.Struct:
		b = append(b, '{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, v.Type().Field(i).Name...)
			b = append(b, ':')
			b = dumpAST(b, v.Field(i))
		}
		return append(b, '}')
	case reflect.Slice:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = dumpAST(b, v.Index(i))
		}
		return append(b, ']')
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	case reflect.Int:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Float64:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	}
	panic("dumpAST: unexpected kind " + v.Kind().String())
}

// dumpProgram is dumpAST of a parse result: the program, or the error.
func dumpProgram(prog *Program, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return string(dumpAST(nil, reflect.ValueOf(prog)))
}

// servedScripts returns, sorted, every distinct script body a web of
// the given number of sites with consent managers serves: each
// service's source, and every
// script each complete site's pages reference or inline (first-party,
// CMP loader, CDN sibling, cloaked tracker, SSO and refresher scripts),
// plus each site's tag-manager container, which a CMP may inject
// instead of the page tagging it.
func servedScripts(t *testing.T, sites int) []string {
	t.Helper()
	cfg := webgen.DefaultConfig(sites)
	cfg.CMP = true
	w := webgen.Build(cfg)
	client := w.BuildInternet().Client()
	get := func(url string) (string, string) {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			return "", ""
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	seen := map[string]bool{}
	for _, svc := range w.Services {
		seen[svc.Source] = true
	}
	for _, s := range w.CompleteSites() {
		srcs := []string{webgen.ContainerURL(w, s)}
		for _, path := range []string{"/", "/products", "/about", "/login"} {
			page, ctype := get("https://" + s.Host + path)
			if !strings.HasPrefix(ctype, "text/html") {
				continue
			}
			for _, el := range dom.NewDocument("", dom.Parse(page)).ByTag("script") {
				if src := el.Attr("src"); src != "" {
					if strings.HasPrefix(src, "/") {
						src = "https://" + s.Host + src
					}
					srcs = append(srcs, src)
				} else {
					seen[el.InnerText()] = true
				}
			}
		}
		for _, src := range srcs {
			if src == "" {
				continue
			}
			if body, ctype := get(src); ctype == "application/javascript" {
				seen[body] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestParseGoldenServedScripts pins the parse of every script the
// generated web serves: the count of distinct scripts and the sha256 of
// their canonical AST dumps, one line per script in sorted source order.
// A change to how Parse builds trees must leave this hash alone.
func TestParseGoldenServedScripts(t *testing.T) {
	const (
		wantScripts = 788
		wantHash    = "53c63860acac2938c05a0149b86a51d9b58dd424c08310c7694cd96a13d4d018"
	)
	scripts := servedScripts(t, 200)
	h := sha256.New()
	for _, src := range scripts {
		io.WriteString(h, dumpProgram(Parse(src)))
		io.WriteString(h, "\n")
	}
	got := hex.EncodeToString(h.Sum(nil))
	if len(scripts) != wantScripts || got != wantHash {
		t.Fatalf("parsed %d scripts to AST hash %s; want %d scripts and %s", len(scripts), got, wantScripts, wantHash)
	}
}

// keptBuiltins are the builtins no script the generated web serves
// calls, each with the reason it stays.
var keptBuiltins = map[string]string{
	"doc_cookie":     "the raw document.cookie string; the browser and guard tests' scripts read the rendered jar through it",
	"doc_set_cookie": "the raw document.cookie setter, the only script path that hands the cookie layers an arbitrary assignment line",
	"log":            "console.log, the language tests' only output channel",
	"md5":            "a hashed identifier, an exfiltration form the §4.4 search looks for, which the web does not plant yet",
	"sha1":           "a hashed identifier, an exfiltration form the §4.4 search looks for, which the web does not plant yet",
}

// TestBuiltinCensus parses every script a 20,000-site web serves and
// checks that each call names a builtin and that each builtin is called
// by a served script or kept for a reason in keptBuiltins. The 200-site
// web of TestParseGoldenServedScripts calls fewer builtins (no
// starts_with).
func TestBuiltinCensus(t *testing.T) {
	called := map[string]bool{}
	for _, src := range servedScripts(t, 20_000) {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		addCalls(called, reflect.ValueOf(prog))
	}
	for name := range called {
		if builtins[name] == nil {
			t.Errorf("a served script calls %s, which is not a builtin", name)
		}
	}
	for name := range builtins {
		if !called[name] && keptBuiltins[name] == "" {
			t.Errorf("no served script calls the builtin %s, and keptBuiltins gives no reason to keep it", name)
		}
	}
	for name := range keptBuiltins {
		if builtins[name] == nil || called[name] {
			t.Errorf("keptBuiltins lists %s, which is not an uncalled builtin", name)
		}
	}
}

// addCalls adds to called the builtin name of every CallExpr in the tree
// v, walking it as dumpAST does.
func addCalls(called map[string]bool, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		if call, ok := v.Interface().(*CallExpr); ok {
			called[call.Callee.(*Ident).Name] = true
		}
		addCalls(called, v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			addCalls(called, v.Field(i))
		}
	case reflect.Slice:
		for i := range v.Len() {
			addCalls(called, v.Index(i))
		}
	}
}
