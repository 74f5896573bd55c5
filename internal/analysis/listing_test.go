package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"
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

// resultsBytes joins a listing's Results chunks.
func resultsBytes(t testing.TB, l *SiteListing, r *Results) []byte {
	t.Helper()
	chunks, err := l.Results(r)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	return bytes.Join(chunks, nil)
}

// stableResults is the reference shape of StableJSON: json.Marshal of
// it is the oracle the listing's Results chunks are checked against.
type stableResults struct {
	Summary    Summary        `json:"summary"`
	Pairs      []PairRow      `json:"pairs"`
	PairsByAPI map[string]int `json:"pairs_by_api"`
	Sites      []SiteRow      `json:"sites"`
	Events     []Event        `json:"events"`
	Failures   FailureStats   `json:"failures"`
	Vantages   []VantageRow   `json:"vantages"`
}

// oracleJSON is json.Marshal of r's stableResults: every row and every
// event marshalled from scratch, the events again in site order (null
// when there are none).
func oracleJSON(t testing.TB, r *Results) []byte {
	t.Helper()
	byAPI := make(map[string]int, len(r.PairsByAPI))
	for api, n := range r.PairsByAPI {
		byAPI[string(api)] = n
	}
	b, err := json.Marshal(stableResults{
		Summary:    r.Summary,
		Pairs:      r.PairRows(),
		PairsByAPI: byAPI,
		Sites:      r.SiteRows(),
		Events:     allEvents(r),
		Failures:   r.Failures,
		Vantages:   r.VantageTable(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkOracle fails unless StableJSON and l's Results both equal the
// oracle on r.
func checkOracle(t testing.TB, l *SiteListing, r *Results, what string) {
	t.Helper()
	want := oracleJSON(t, r)
	if got := stableBytes(t, r); !bytes.Equal(got, want) {
		t.Fatalf("%s: StableJSON diverges from the oracle\nwant: %s\ngot:  %s", what, want, got)
	}
	if got := resultsBytes(t, l, r); !bytes.Equal(got, want) {
		t.Fatalf("%s: listing Results diverge from the oracle\nwant: %s\ngot:  %s", what, want, got)
	}
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
// equals json.Marshal(SiteRows()) byte for byte, and StableJSON and the
// listing's Results equal the oracle.
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
			checkOracle(t, &l, r, fmt.Sprintf("after %d logs", i+1))
		}
	}
	snaps = append(snaps, an.Finalize())
	for k := len(snaps) - 1; k >= 0; k-- {
		if got, want := listingBytes(t, &l, snaps[k]), siteRowsJSON(t, snaps[k]); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d re-encoded out of order: listing diverges from SiteRows", k)
		}
		checkOracle(t, &l, snaps[k], fmt.Sprintf("snapshot %d re-encoded out of order", k))
	}
}

// TestSiteListingEmpty: an empty analysis lists as [], and its Results
// hold "sites":[] and "events":null, as the oracle does.
func TestSiteListingEmpty(t *testing.T) {
	var l SiteListing
	empty := New().Finalize()
	if got := listingBytes(t, &l, empty); string(got) != "[]" {
		t.Fatalf("empty listing %q, want []", got)
	}
	checkOracle(t, &l, empty, "empty analysis")
	if got := resultsBytes(t, &l, empty); !bytes.Contains(got, []byte(`"sites":[],"events":null,`)) {
		t.Fatalf("empty Results %s, want \"sites\":[] and \"events\":null", got)
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
	// Results lists Encode's row chunks themselves, and encoding unchanged
	// Results again reuses every row and every events slice.
	r1, err := l.Results(first)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := l.Encode(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c4 {
		if &r1[2+i][0] != &c4[i][0] {
			t.Fatalf("Results chunk %d does not share Encode's chunk %d", 2+i, i)
		}
	}
	r2, err := l.Results(New().Run(logs))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("Results chunk counts %d != %d", len(r1), len(r2))
	}
	for i := 2; i < len(r1)-1; i++ { // every chunk but the head and the tail
		if &r1[i][0] != &r2[i][0] {
			t.Fatalf("Results chunk %d re-encoded for unchanged inputs", i)
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

	// Reuse compares content, not sizes: a cloned site record whose event
	// or action set changed at equal size is re-encoded.
	listingBytes(t, &l, first)
	alt := *first
	alt.sites = maps.Clone(first.sites)
	site := allEvents(first)[0].Site
	rec := alt.sites[site]
	rec.events = slices.Clone(rec.events)
	rec.events[0].ActorScript += "?v=2"
	alt.sites[site] = rec
	if got, want := listingBytes(t, &l, &alt), siteRowsJSON(t, &alt); !bytes.Equal(got, want) {
		t.Fatal("event changed in a cloned record: listing diverges from SiteRows")
	}
	acts := map[actionAPIKey]bool{}
	for k := range rec.actions {
		k.API += "-v2"
		acts[k] = true
	}
	rec.actions = acts
	alt.sites[site] = rec
	if got, want := listingBytes(t, &l, &alt), siteRowsJSON(t, &alt); !bytes.Equal(got, want) {
		t.Fatal("action set changed at equal size: listing diverges from SiteRows")
	}
}

// TestSiteRowMatchesSiteRows: SiteRow returns each row SiteRows lists,
// and reports unknown sites as absent.
func TestSiteRowMatchesSiteRows(t *testing.T) {
	r := New().Run(fixtureLogs(40))
	rows := r.SiteRows()
	if len(rows) == 0 || len(allEvents(r)) == 0 {
		t.Fatal("empty fixture")
	}
	for _, want := range rows {
		got, ok := r.SiteRow(want.Site)
		if !ok {
			t.Fatalf("SiteRow(%s) not found", want.Site)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("SiteRow(%s) diverges\nwant: %s\ngot:  %s", want.Site, wb, gb)
		}
	}
	if _, ok := r.SiteRow("nosuch.example"); ok {
		t.Fatal("unknown site reported found")
	}
}
