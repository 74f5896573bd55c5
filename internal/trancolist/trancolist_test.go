package trancolist

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	in := []Entry{{1, "example.com"}, {2, "shop.example.org"}, {3, "news.example.net"}}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != in[0] || out[2] != in[2] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestParseTolerant(t *testing.T) {
	src := "# comment\n\n1,Example.COM\n2, spaced.example \n"
	out, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Domain != "example.com" || out[1].Domain != "spaced.example" {
		t.Fatalf("parsed = %+v", out)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"nocomma", "x,example.com", "1,"} {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDomains(t *testing.T) {
	es := []Entry{{1, "a.com"}, {2, "b.com"}, {3, "c.com"}}
	if got := Domains(es); len(got) != 3 || got[1] != "b.com" {
		t.Fatalf("Domains = %v", got)
	}
}
