package jsdsl

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cookieguard/internal/webgen"
)

// fuzzSeeds returns every generated third-party script body of a small
// web and every string literal in interp_test.go, which holds the
// interpreter tests' programs.
func fuzzSeeds(f *testing.F) []string {
	var seeds []string
	for _, svc := range webgen.Build(webgen.DefaultConfig(20)).Services {
		seeds = append(seeds, svc.Source)
	}
	file, err := goparser.ParseFile(token.NewFileSet(), "interp_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				seeds = append(seeds, s)
			}
		}
		return true
	})
	return seeds
}

// FuzzParse checks that Parse never panics, that its pooled token
// buffer carries nothing from one parse to the next, and that programs
// share no node memory: parsing a, then b, then a again must yield deeply
// equal programs (or the same error), and the first program must still
// dump as it did before b was parsed.
func FuzzParse(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		first, firstErr := Parse(a)
		firstDump := dumpProgram(first, firstErr)
		Parse(b)
		if dumpProgram(first, firstErr) != firstDump {
			t.Fatalf("Parse(%q) program changed when %q was parsed", a, b)
		}
		again, againErr := Parse(a)
		if errText(firstErr) != errText(againErr) {
			t.Fatalf("Parse(%q) error changed after parsing %q: %v, then %v", a, b, firstErr, againErr)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("Parse(%q) program changed after parsing %q", a, b)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fuzzMaxSteps keeps each FuzzInterp input short-running.
const fuzzMaxSteps = 10_000

// FuzzInterp checks that running any source never panics and always
// terminates within the step budget: a script either finishes or fails
// with an error, having executed at most fuzzMaxSteps steps.
func FuzzInterp(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		in := NewInterp(&NopHost{})
		in.MaxSteps = fuzzMaxSteps
		in.RunSource(src)
		if in.Steps() > fuzzMaxSteps+1 {
			t.Fatalf("ran %d steps past a budget of %d", in.Steps(), fuzzMaxSteps)
		}
	})
}

// FuzzParseCookieString checks that parsing a document.cookie string
// never panics, and that the interpreter's memo path, which parses into
// the slice and map of the string before it, yields exactly what a fresh
// ParseCookieString does.
func FuzzParseCookieString(f *testing.F) {
	w := webgen.Build(webgen.DefaultConfig(20))
	client := w.BuildInternet().Client()
	var jar []string
	for _, s := range w.CompleteSites() {
		resp, err := client.Get("https://" + s.Host + "/")
		if err != nil {
			f.Fatal(err)
		}
		resp.Body.Close()
		for _, sc := range resp.Header["Set-Cookie"] {
			// A Set-Cookie line, and the document.cookie the jar builds
			// from its name=value pairs.
			f.Add(sc, strings.Join(jar, "; "))
			jar = append(jar, strings.SplitN(sc, ";", 2)[0])
		}
	}
	for _, s := range []string{
		"_ga=GA1.1.1.2; _fbp=fb.0.3.4;  empty ; bad", "", ";", " ; ;", "=v", "a=", "a==b=",
		" a = 1 ;b=2", "a=1; a=2", "a=1;a=1;a", "k\t=\tv\t", "x= y ", "\xff=\xfe",
	} {
		f.Add(s, strings.Join(jar, "; "))
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		names, values := parseCookieStringInto(a, nil, nil)
		names, values = parseCookieStringInto(b, names[:0], values)
		wantNames, wantValues := ParseCookieString(b)
		if !slices.Equal(names, wantNames) || !maps.Equal(values, wantValues) {
			t.Fatalf("parsing %q into the buffers of %q gave %q %v; fresh %q %v", b, a, names, values, wantNames, wantValues)
		}
		if len(names) != len(values) {
			t.Fatalf("ParseCookieString(%q) gave %d names for %d values", b, len(names), len(values))
		}
		for _, n := range names {
			if _, ok := values[n]; !ok {
				t.Fatalf("ParseCookieString(%q) named %q without a value", b, n)
			}
		}
	})
}
