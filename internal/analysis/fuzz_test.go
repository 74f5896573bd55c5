package analysis

import (
	"bytes"
	"fmt"
	"net/url"
	"slices"
	"strings"
	"testing"

	"cookieguard/internal/instrument"
)

// FuzzQueryValues checks the matcher's query handling against net/url:
// scan returns the raw query url.Parse gives, and unescapes exactly the
// values url.ParseQuery keeps whose raw form holds a '%' or a '+',
// compared as sorted multisets. One matcher serves every input, so its
// reused buffers are under test too.
func FuzzQueryValues(f *testing.F) {
	const sink = "https://px.sink.example/c"
	for _, s := range []string{
		// The URLs of TestExfilMatcherAgreesWithOracleOnEdgeCases.
		sink + "?p=%2Bk9x8c7v6%2F",
		sink + "?d=%57nE3WHczTHA5UnQy",
		sink + "?d=WnE3WHczTHA5UnQy&z=1",
		sink + "?d=xxMn4Bv8Cx2Zl6Qwyy",
		sink + "?a=Sp1itAcr&b=0ssVals",
		sink + "?uid=Mn4Bv8Cx2Zl6Qw\x01",
		sink + "/Mn4Bv8Cx2Zl6Qw?",
		sink + "/Mn4Bv8Cx2Zl6Qw",
		sink + "?a=1;u=%2Bk9x8c7v6",
		sink + "?u=%zz%2Bk9x8c7v6",
		sink + "?u=k9x8c7v6+Mn4Bv8Cx2Zl6Qw",
		// A '%' in the last two bytes, in a value and in a key.
		sink + "?u=ab%4",
		sink + "?u=ab%",
		sink + "?ok=1&u%4=v",
		sink + "?%zz=1&b=%41%42",
		// Empty pairs and keys, '=' in a value, a fragment, and a
		// non-canonical URL that takes the url.Parse fallback.
		sink + "?&&=x&k=&=&a=b=c",
		sink + "?u=%41+b#frag%zz",
		"HTTPS://Px.Sink.Example:443/c?u=%2541&v=+",
		"https://www.site00002.de/sync?id=Zm9vYmFy%3D%3D&u=https%3A%2F%2Fwww.site00002.de%2F",
	} {
		f.Add(s)
	}
	var m exfilMatcher
	f.Fuzz(func(t *testing.T, rawURL string) {
		query := m.scan(rawURL, 8)
		if want := oracleQueryString(rawURL); query != want {
			t.Fatalf("scan(%q) query = %q, want %q", rawURL, query, want)
		}
		if query == "" {
			return
		}
		var got []string
		lo := 0
		for _, hi := range m.decEnds {
			got = append(got, string(m.dec[lo:hi]))
			lo = hi
		}
		slices.Sort(got)
		want := oracleEscapedValues(query)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("scan(%q) values = %q, want %q", rawURL, got, want)
		}
	})
}

// oracleEscapedValues is every value url.ParseQuery keeps from query
// whose raw form holds a '%' or a '+', decoded by url.ParseQuery: each
// '&'-separated pair is parsed alone, so its raw value is known.
func oracleEscapedValues(query string) []string {
	var out []string
	for _, pair := range strings.Split(query, "&") {
		_, raw, _ := strings.Cut(pair, "=")
		if !strings.ContainsAny(raw, "%+") {
			continue
		}
		q, err := url.ParseQuery(pair)
		if err != nil {
			continue
		}
		for _, vs := range q {
			out = append(out, vs...)
		}
	}
	return out
}

// FuzzObserveOrder checks the order-independence contract on a
// 2-vantage × 2-persona crawl. Byte i of the input picks which of the
// logs not yet observed is observed i-th (its high seven bits) and
// whether a Snapshot follows it (its low bit); missing bytes are zero,
// so the empty input is the sorted feed. Whatever the order, Finalize's
// StableJSON, site listing and listing Results equal the sorted feed's,
// which equal the oracle's, and no later observation changes a
// snapshot's bytes. One SiteListing encodes every snapshot and the final
// Results, so its row reuse is under test too.
func FuzzObserveOrder(f *testing.F) {
	var sorted []instrument.VisitLog
	for _, v := range fixtureLogs(8) {
		for _, key := range crawlKeys {
			sorted = append(sorted, atKey(v, key))
		}
	}
	wantRes := New().Run(sorted)
	want, err := wantRes.StableJSON()
	if err != nil {
		f.Fatal(err)
	}
	var wl SiteListing
	wantList, err := wl.Encode(wantRes)
	if err != nil {
		f.Fatal(err)
	}
	checkOracle(f, &wl, wantRes, "sorted feed")

	n := len(sorted)
	reversed, everyFifth := make([]byte, n), make([]byte, n)
	for i := range reversed {
		reversed[i] = byte(n-1-i) << 1
		everyFifth[i] = byte(i*37%(n-i))<<1 | byte(i%5/4)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, n))
	f.Add(reversed)
	f.Add(everyFifth)
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := slices.Clone(sorted)
		an := New()
		var l SiteListing
		type taken struct {
			res           *Results
			json, listing []byte
		}
		var snaps []taken
		for i := range feed {
			var b byte
			if i < len(data) {
				b = data[i]
			}
			j := i + int(b>>1)%(n-i)
			feed[i], feed[j] = feed[j], feed[i]
			an.Observe(feed[i])
			if b&1 != 0 {
				r := an.Snapshot()
				snaps = append(snaps, taken{r, stableBytes(t, r), listingBytes(t, &l, r)})
			}
		}
		fin := an.Finalize()
		if got := stableBytes(t, fin); !bytes.Equal(got, want) {
			t.Fatalf("feed %q: StableJSON diverges from the sorted feed's", data)
		}
		if got := listingBytes(t, &l, fin); !bytes.Equal(got, bytes.Join(wantList, nil)) {
			t.Fatalf("feed %q: listing diverges from the sorted feed's", data)
		}
		if got := resultsBytes(t, &l, fin); !bytes.Equal(got, want) {
			t.Fatalf("feed %q: listing Results diverge from the sorted feed's", data)
		}
		for k, s := range snaps {
			if got := stableBytes(t, s.res); !bytes.Equal(got, s.json) {
				t.Fatalf("feed %q: snapshot %d's StableJSON changed after it was taken", data, k)
			}
			if !bytes.Equal(s.listing, siteRowsJSON(t, s.res)) {
				t.Fatalf("feed %q: snapshot %d's listing diverges from its SiteRows", data, k)
			}
			checkOracle(t, &l, s.res, fmt.Sprintf("feed %q: snapshot %d", data, k))
		}
	})
}
