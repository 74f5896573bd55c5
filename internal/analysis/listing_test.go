package analysis

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"cookieguard/internal/instrument"
)

// listingBytes joins a listing's chunks.
func listingBytes(t *testing.T, l *SiteListing, r *Results) []byte {
	t.Helper()
	chunks, err := l.Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return bytes.Join(chunks, nil)
}

func siteRowsJSON(t *testing.T, r *Results) []byte {
	t.Helper()
	b, err := json.Marshal(r.SiteRows())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSiteListingMatchesSiteRows: across a growing run's snapshots, and
// when older snapshots are encoded again after newer ones, the listing
// equals json.Marshal(SiteRows()) byte for byte.
func TestSiteListingMatchesSiteRows(t *testing.T) {
	logs := fixtureLogs(60)
	for i := range logs {
		if i%5 == 0 { // a second vantage of an already-seen site
			v := logs[i/2]
			v.Vantage = "us"
			logs = append(logs, v)
		}
	}
	an := New()
	var l SiteListing
	var snaps []*Results
	for i, v := range logs {
		an.Observe(v)
		if i%9 == 0 {
			snaps = append(snaps, an.Snapshot())
			r := snaps[len(snaps)-1]
			if got, want := listingBytes(t, &l, r), siteRowsJSON(t, r); !bytes.Equal(got, want) {
				t.Fatalf("after %d logs: listing diverges from SiteRows\nwant: %s\ngot:  %s", i+1, want, got)
			}
		}
	}
	snaps = append(snaps, an.Finalize())
	for k := len(snaps) - 1; k >= 0; k-- {
		if got, want := listingBytes(t, &l, snaps[k]), siteRowsJSON(t, snaps[k]); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d re-encoded out of order: listing diverges from SiteRows", k)
		}
	}
}

// TestSiteListingFallback: Results whose Events are not grouped by site
// in ascending order, or name a site missing from SiteActions, are
// encoded whole, and still equal SiteRows.
func TestSiteListingFallback(t *testing.T) {
	ow := map[actionAPIKey]bool{{ActOverwriting, instrument.APIDocument}: true}
	ev := func(site string, kind ActionKind) Event {
		return Event{Site: site, Kind: kind, Cookie: CookieKey{Name: "_ga", Owner: "o.example"}, API: instrument.APIDocument}
	}
	cases := map[string]*Results{
		"unsorted": {
			SiteActions: map[string]map[actionAPIKey]bool{"a.example": ow, "b.example": ow},
			Events:      []Event{ev("b.example", ActOverwriting), ev("a.example", ActOverwriting), ev("b.example", ActDeleting)},
		},
		"missing-site": {
			SiteActions: map[string]map[actionAPIKey]bool{"b.example": ow},
			Events:      []Event{ev("a.example", ActOverwriting), ev("b.example", ActOverwriting)},
		},
	}
	for name, r := range cases {
		var l SiteListing
		chunks, err := l.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 1 {
			t.Fatalf("%s: %d chunks; want the whole-body fallback", name, len(chunks))
		}
		if got, want := bytes.Join(chunks, nil), siteRowsJSON(t, r); !bytes.Equal(got, want) {
			t.Fatalf("%s: fallback listing diverges\nwant: %s\ngot:  %s", name, want, got)
		}
	}
}

// TestSiteListingEmpty: an empty analysis lists as [].
func TestSiteListingEmpty(t *testing.T) {
	var l SiteListing
	if got := listingBytes(t, &l, New().Finalize()); string(got) != "[]" {
		t.Fatalf("empty listing %q, want []", got)
	}
}

// TestSiteListingReusesRows: encoding unchanged Results again reuses
// every row's bytes, and a changed site gets a new encoding.
func TestSiteListingReusesRows(t *testing.T) {
	logs := fixtureLogs(30)
	a := New()
	first := a.Run(logs)
	var l SiteListing
	c1, err := l.Encode(first)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := l.Encode(New().Run(logs))
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("chunk counts %d != %d", len(c1), len(c2))
	}
	for i := range c1 {
		if &c1[i][0] != &c2[i][0] {
			t.Fatalf("chunk %d re-encoded for unchanged inputs", i)
		}
	}
	// One more overwrite on the first site changes its row only.
	extra := logs[0]
	extra.Vantage = "us"
	c3, err := l.Encode(New().Run(append(logs, extra)))
	if err != nil {
		t.Fatal(err)
	}
	if &c3[1][0] == &c1[1][0] {
		t.Fatal("changed row reused its stale encoding")
	}
	for i := 2; i < len(c1); i++ {
		if &c1[i][0] != &c3[i][0] {
			t.Fatalf("unchanged chunk %d re-encoded", i)
		}
	}

	// Reuse compares content, not sizes: an event or an action set that
	// changed in place is re-encoded.
	listingBytes(t, &l, first)
	alt := *first
	alt.Events = slices.Clone(first.Events)
	alt.Events[0].ActorScript += "?v=2"
	if got, want := listingBytes(t, &l, &alt), siteRowsJSON(t, &alt); !bytes.Equal(got, want) {
		t.Fatal("event changed in place: listing diverges from SiteRows")
	}
	site := alt.Events[0].Site
	alt.SiteActions = maps.Clone(first.SiteActions)
	acts := map[actionAPIKey]bool{}
	for k := range first.SiteActions[site] {
		k.API += "-v2"
		acts[k] = true
	}
	alt.SiteActions[site] = acts
	if got, want := listingBytes(t, &l, &alt), siteRowsJSON(t, &alt); !bytes.Equal(got, want) {
		t.Fatal("action set changed at equal size: listing diverges from SiteRows")
	}
}

// TestSiteRowMatchesSiteRows: SiteRow returns each row SiteRows lists,
// on finalized Results and on a copy with its Events reversed, and
// reports unknown sites as absent.
func TestSiteRowMatchesSiteRows(t *testing.T) {
	fin := New().Run(fixtureLogs(40))
	rev := *fin
	rev.Events = nil
	for i := len(fin.Events) - 1; i >= 0; i-- {
		rev.Events = append(rev.Events, fin.Events[i])
	}
	for name, r := range map[string]*Results{"finalized": fin, "reversed": &rev} {
		rows := r.SiteRows()
		if len(rows) == 0 || len(r.Events) == 0 {
			t.Fatalf("%s: empty fixture", name)
		}
		for _, want := range rows {
			got, ok := r.SiteRow(want.Site)
			if !ok {
				t.Fatalf("%s: SiteRow(%s) not found", name, want.Site)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s: SiteRow(%s) diverges\nwant: %s\ngot:  %s", name, want.Site, wb, gb)
			}
		}
		if _, ok := r.SiteRow("nosuch.example"); ok {
			t.Fatalf("%s: unknown site reported found", name)
		}
	}
}
