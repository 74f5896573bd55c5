package publicsuffix

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPublicSuffix(t *testing.T) {
	cases := []struct {
		host   string
		suffix string
		listed bool
	}{
		{"example.com", "com", true},
		{"www.example.com", "com", true},
		{"example.co.uk", "co.uk", true},
		{"a.b.example.co.uk", "co.uk", true},
		{"example.github.io", "github.io", true},
		{"foo.blogspot.com", "blogspot.com", true},
		{"example.unknowntld", "unknowntld", false}, // implicit * rule
		{"sub.example.unknowntld", "unknowntld", false},
		{"foo.bar.ck", "bar.ck", true}, // wildcard *.ck
		{"www.ck", "ck", true},         // exception !www.ck
		{"city.kawasaki.jp", "kawasaki.jp", true},
		{"other.kawasaki.jp", "other.kawasaki.jp", true}, // *.kawasaki.jp
		{"COM", "com", true},                             // case folding
		{"example.com.", "com", true},                    // trailing dot
	}
	for _, c := range cases {
		got, listed := PublicSuffix(c.host)
		if got != c.suffix || listed != c.listed {
			t.Errorf("PublicSuffix(%q) = (%q,%v), want (%q,%v)",
				c.host, got, listed, c.suffix, c.listed)
		}
	}
}

func TestETLDPlusOne(t *testing.T) {
	cases := []struct {
		host string
		want string
	}{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.com", "example.com"},
		{"example.co.uk", "example.co.uk"},
		{"shop.example.co.uk", "example.co.uk"},
		{"user.github.io", "user.github.io"},
		{"deep.user.github.io", "user.github.io"},
		{"store.myshopify.com", "store.myshopify.com"},
		{"googletagmanager.com", "googletagmanager.com"},
		{"px.ads.linkedin.com", "linkedin.com"},
		{"cdn.shopifycloud.com", "shopifycloud.com"},
		{"WWW.EXAMPLE.COM", "example.com"},
		{"something.unknowntld", "something.unknowntld"},
		{"www.ck", "www.ck"}, // exception rule: www.ck is registrable
		{"sub.www.ck", "www.ck"},
		{"city.kawasaki.jp", "city.kawasaki.jp"},
	}
	for _, c := range cases {
		got, err := ETLDPlusOne(c.host)
		if err != nil {
			t.Errorf("ETLDPlusOne(%q) error: %v", c.host, err)
			continue
		}
		if got != c.want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestETLDPlusOneErrors(t *testing.T) {
	cases := []struct {
		host string
		err  error
	}{
		{"", ErrEmptyHost},
		{"   ", ErrEmptyHost},
		{"192.168.1.1", ErrIPAddress},
		{"::1", ErrIPAddress},
		{"com", ErrIsSuffix},
		{"co.uk", ErrIsSuffix},
		{"github.io", ErrIsSuffix},
	}
	for _, c := range cases {
		_, err := ETLDPlusOne(c.host)
		if err != c.err {
			t.Errorf("ETLDPlusOne(%q) err = %v, want %v", c.host, err, c.err)
		}
	}
}

func TestRegistrableDomainForgiving(t *testing.T) {
	cases := []struct{ host, want string }{
		{"www.example.com", "example.com"},
		{"192.168.1.1", "192.168.1.1"},
		{"com", "com"},
		{"localhost", "localhost"},
		{"", ""},
	}
	for _, c := range cases {
		if got := RegistrableDomain(c.host); got != c.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

// Property: eTLD+1 is idempotent — the registrable domain of a registrable
// domain is itself.
func TestRegistrableDomainIdempotent(t *testing.T) {
	hosts := []string{
		"www.example.com", "a.b.c.example.co.uk", "x.user.github.io",
		"px.ads.linkedin.com", "deep.sub.something.unknowntld",
	}
	for _, h := range hosts {
		d1 := RegistrableDomain(h)
		d2 := RegistrableDomain(d1)
		if d1 != d2 {
			t.Errorf("not idempotent: %q -> %q -> %q", h, d1, d2)
		}
	}
}

// Property (quick): for any synthetic host made of clean labels, the
// registrable domain is a suffix of the host and contains the public suffix.
func TestRegistrableDomainSuffixProperty(t *testing.T) {
	labels := []string{"a", "bb", "ccc", "www", "cdn", "shop", "example",
		"tracker", "analytics"}
	tlds := []string{"com", "org", "co.uk", "io", "net", "unknowntld"}
	f := func(i1, i2, i3, it uint8, depth uint8) bool {
		host := tlds[int(it)%len(tlds)]
		parts := []string{labels[int(i1)%len(labels)],
			labels[int(i2)%len(labels)], labels[int(i3)%len(labels)]}
		for d := 0; d < int(depth%3)+1; d++ {
			host = parts[d] + "." + host
		}
		rd := RegistrableDomain(host)
		if rd == "" {
			return false
		}
		if host != rd && !strings.HasSuffix(host, "."+rd) {
			return false
		}
		suffix, _ := PublicSuffix(host)
		return rd == suffix || strings.HasSuffix(rd, "."+suffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkETLDPlusOne(b *testing.B) {
	hosts := []string{
		"www.example.com", "a.b.example.co.uk", "px.ads.linkedin.com",
		"user.github.io", "cdn.shopifycloud.com",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = ETLDPlusOne(hosts[i%len(hosts)])
	}
}
