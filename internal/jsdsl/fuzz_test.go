package jsdsl

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"strconv"
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

// FuzzParse checks that Parse never panics, and that its pooled token
// buffer carries nothing from one parse to the next: parsing a, then b,
// then a again must yield deeply equal programs (or the same error).
func FuzzParse(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		first, firstErr := Parse(a)
		Parse(b)
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
