package crawlflags

import (
	"flag"
	"slices"
	"testing"

	"cookieguard"
)

// TestOptions: the parsed flags reach the pipeline, with the name lists
// trimmed and empty names dropped.
func TestOptions(t *testing.T) {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	f := Register(fs, 1000, "sites")
	if err := fs.Parse([]string{"-sites", "4", "-vantages", " eu-west,,us-east ", "-personas", "accept, reject,"}); err != nil {
		t.Fatal(err)
	}
	p := cookieguard.New(f.Options()...)
	var vantages []string
	for _, v := range p.Vantages() {
		vantages = append(vantages, v.Name)
	}
	if !slices.Equal(vantages, []string{"eu-west", "us-east"}) {
		t.Errorf("vantages = %q", vantages)
	}
	if got := p.Personas(); !slices.Equal(got, []string{"accept", "reject"}) {
		t.Errorf("personas = %q", got)
	}
	if got := len(p.SiteList()); got != 4 {
		t.Errorf("sites = %d, want 4", got)
	}
}

// TestDefaultsSelectNothing: at every default the options are those of
// a plain pipeline: the default vantage and no personas.
func TestDefaultsSelectNothing(t *testing.T) {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	f := Register(fs, 3, "sites")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	p := cookieguard.New(f.Options()...)
	if v := p.Vantages(); len(v) != 1 || v[0].Name != "" {
		t.Errorf("vantages = %+v, want the one default vantage", v)
	}
	if got := p.Personas(); len(got) != 0 {
		t.Errorf("personas = %q, want none", got)
	}
}
