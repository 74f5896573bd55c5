package analysis

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cookieguard/internal/instrument"
)

// fixtureLogs builds n complete visits with unique sites (the pipeline
// visits each (site, vantage) once per crawl) cycling through the
// behaviours the analyzer detects — overwrite, delete, exfiltration,
// HTTP-set clobber — plus periodic incomplete visits and a second
// vantage, so every part of the state a snapshot copies (events, pairs,
// site actions, failures, vantage rollups) is exercised.
func fixtureLogs(n int) []instrument.VisitLog {
	logs := make([]instrument.VisitLog, 0, n)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("site%03d.example", i)
		if i%7 == 6 {
			logs = append(logs, instrument.VisitLog{Site: site, OK: false})
			continue
		}
		v := baseLog()
		v.Site = site
		v.URL = "https://www." + site + "/"
		if i%3 == 1 {
			v.Vantage = "eu"
		}
		v.Timing.LoadEvent = float64(40 + i%17*13)
		switch i % 4 {
		case 0: // cross-domain overwrite
			v.Cookies = []instrument.CookieEvent{
				writeEv(instrument.APIDocument, "_ga", "GA1.1.444332364.1746838827", setterJS, 3600),
				writeEv(instrument.APIDocument, "_ga", "GA1.1.999999999.1746838827", readerJS, 7200),
			}
		case 1: // exfiltration via beacon
			v.Cookies = []instrument.CookieEvent{
				writeEv(instrument.APIDocument, "_uid", "uidval4433236411", setterJS, 3600),
			}
			v.Requests = append(v.Requests, instrument.RequestEvent{
				URL:             "https://px.dest.example/t?u=dWlkdmFsNDQzMzIzNjQxMQ",
				Kind:            "beacon",
				InitiatorScript: readerJS,
				InitiatorDomain: "other.example",
				MainFrame:       true,
			})
		case 2: // cross-domain delete + CookieStore write
			v.Cookies = []instrument.CookieEvent{
				writeEv(instrument.APIDocument, "_sid", "sidvalue12345678", setterJS, 600),
				deleteEv(instrument.APIDocument, "_sid", readerJS),
				writeEv(instrument.APICookieStore, "cs_id", "csvalue1234567", setterJS, 600),
			}
		case 3: // HTTP-set cookie clobbered by script
			v.Cookies = []instrument.CookieEvent{
				{Op: instrument.OpHTTPSet, API: instrument.APIHTTP, Name: "srv",
					Value: "serverval12345678", Domain: site, MainFrame: true},
				writeEv(instrument.APIDocument, "srv", "clobbered12345678", readerJS, 60),
			}
		}
		logs = append(logs, v)
	}
	return logs
}

func stableBytes(t testing.TB, r *Results) []byte {
	t.Helper()
	b, err := r.StableJSON()
	if err != nil {
		t.Fatalf("StableJSON: %v", err)
	}
	return b
}

// TestSnapshotNonDestructive: a Snapshot must not consume the
// analyzer's state — observation continues and the final Finalize still
// covers every log.
func TestSnapshotNonDestructive(t *testing.T) {
	logs := fixtureLogs(20)
	want := stableBytes(t, New().Run(logs))

	an := New()
	for i, v := range logs {
		an.Observe(v)
		if i == len(logs)/2 {
			mid := an.Snapshot()
			if mid.Summary.SitesTotal == 0 {
				t.Fatal("mid-run snapshot saw no sites")
			}
		}
	}
	if got := stableBytes(t, an.Finalize()); string(got) != string(want) {
		t.Fatal("Finalize after mid-run Snapshot diverges from single analyzer")
	}
}

// TestMergeMatchesSingle is the fold's equivalence contract: Snapshot
// merges an analyzer's accumulated state into a fresh one, and for
// seeded shuffles of the feed order both that Snapshot and Finalize must
// produce Results byte-identical to the single analyzer run over the
// logs in order.
func TestMergeMatchesSingle(t *testing.T) {
	logs := fixtureLogs(60)
	want := stableBytes(t, New().Run(logs))

	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		an := New()
		for _, idx := range rng.Perm(len(logs)) {
			an.Observe(logs[idx])
		}
		if got := stableBytes(t, an.Snapshot()); string(got) != string(want) {
			t.Fatalf("trial=%d: Snapshot of shuffled feed diverges from single analyzer\nwant: %s\ngot:  %s", trial, want, got)
		}
		if got := stableBytes(t, an.Finalize()); string(got) != string(want) {
			t.Fatalf("trial=%d: Finalize of shuffled feed diverges from single analyzer\nwant: %s\ngot:  %s", trial, want, got)
		}
	}
}

// TestMergeEmptyShards: folding a never-observed analyzer (its Snapshot)
// yields the same empty Results a fresh analyzer finalizes to.
func TestMergeEmptyShards(t *testing.T) {
	want := stableBytes(t, New().Finalize())
	got := stableBytes(t, New().Snapshot())
	if string(got) != string(want) {
		t.Fatalf("empty fold diverges: want %s got %s", want, got)
	}
}

// TestSnapshotMatchesFinalize: a quiescent Snapshot equals Finalize.
func TestSnapshotMatchesFinalize(t *testing.T) {
	an := New()
	for _, v := range fixtureLogs(15) {
		an.Observe(v)
	}
	snap := stableBytes(t, an.Snapshot())
	fin := stableBytes(t, an.Finalize())
	if string(snap) != string(fin) {
		t.Fatal("quiescent Snapshot diverges from Finalize")
	}
}

// crawlKeys are a 2-vantage × 2-persona crawl's (vantage, persona)
// keys, in canonical order.
var crawlKeys = [][2]string{{"eu-west", "accept"}, {"eu-west", "reject"}, {"us-east", "accept"}, {"us-east", "reject"}}

// atKey is v as observed at the (vantage, persona) key. Each key's
// scripts carry the key in their URL, so its events encode differently
// and a misplaced one shows in the bytes; regions and personas observe
// different tails, so the rollups differ too.
func atKey(v instrument.VisitLog, key [2]string) instrument.VisitLog {
	v.Vantage, v.Persona = key[0], key[1]
	tag := "#" + key[0] + "/" + key[1]
	v.Cookies = slices.Clone(v.Cookies)
	for i := range v.Cookies {
		v.Cookies[i].ScriptURL += tag
	}
	v.Requests = slices.Clone(v.Requests)
	for i := range v.Requests {
		if v.Requests[i].InitiatorScript != "" {
			v.Requests[i].InitiatorScript += tag
		}
	}
	if key[0] == "us-east" {
		v.Timing.LoadEvent *= 0.7
	}
	if key[1] == "reject" {
		v.Timing.LoadEvent += 5
	}
	return v
}

// TestVantageInterleavingOrderIndependent feeds analysis a
// 2-vantage × 2-persona crawl in several orders: one block per key in
// canonical order, whose observations each land at the end of their
// site's events; the blocks reversed, landing at the front; and the
// blocks interleaved log by log in the key order 2, 4, 1, 3, landing at
// the end, the front and the middle. The canonical finalize must make
// every feed byte-identical, through Finalize, through a Snapshot taken
// after the last Observe, and through the site listing.
func TestVantageInterleavingOrderIndependent(t *testing.T) {
	base := fixtureLogs(40)
	blocks := make([][]instrument.VisitLog, len(crawlKeys))
	var blocked []instrument.VisitLog
	for k, key := range crawlKeys {
		for _, v := range base {
			blocks[k] = append(blocks[k], atKey(v, key))
		}
		blocked = append(blocked, blocks[k]...)
	}
	reversed := slices.Clone(blocked)
	slices.Reverse(reversed)
	var interleaved []instrument.VisitLog
	for i := range base {
		for _, k := range []int{1, 3, 0, 2} {
			interleaved = append(interleaved, blocks[k][i])
		}
	}
	wantRes := New().Run(blocked)
	want, wantList := stableBytes(t, wantRes), siteRowsJSON(t, wantRes)
	for name, feed := range map[string][]instrument.VisitLog{"reversed": reversed, "interleaved": interleaved} {
		an := New()
		for _, v := range feed {
			an.Observe(v)
		}
		snap := an.Snapshot()
		fin := an.Finalize()
		var l SiteListing
		for via, r := range map[string]*Results{"Snapshot": snap, "Finalize": fin} {
			if got := stableBytes(t, r); string(got) != string(want) {
				t.Fatalf("%s feed diverges from blocked feed (%s)", name, via)
			}
			if got := listingBytes(t, &l, r); !bytes.Equal(got, wantList) {
				t.Fatalf("%s feed: listing diverges from blocked feed (%s)", name, via)
			}
		}
	}
}

// TestSnapshotUnchangedByEarlierObservation: a Snapshot shares each
// site's events with the analyzer, so observing an already-seen site at
// a canonically earlier (vantage, persona) afterwards, whose events go
// in front of the shared ones, must not change the snapshot's bytes.
// The sites are first seen at three keys, so an insertion that reused a
// slice's spare capacity would have some to write into.
func TestSnapshotUnchangedByEarlierObservation(t *testing.T) {
	base := fixtureLogs(12)
	an := New()
	for _, key := range crawlKeys[1:] {
		for _, v := range base {
			an.Observe(atKey(v, key))
		}
	}
	snap := an.Snapshot()
	var l SiteListing
	wantJSON, wantList := stableBytes(t, snap), listingBytes(t, &l, snap)
	for _, v := range base {
		an.Observe(atKey(v, crawlKeys[0]))
	}
	if got := stableBytes(t, snap); !bytes.Equal(got, wantJSON) {
		t.Fatal("an earlier-keyed observation changed a taken snapshot's StableJSON")
	}
	if got := listingBytes(t, new(SiteListing), snap); !bytes.Equal(got, wantList) {
		t.Fatal("an earlier-keyed observation changed a taken snapshot's listing")
	}
	if got := stableBytes(t, an.Snapshot()); bytes.Equal(got, wantJSON) {
		t.Fatal("the earlier-keyed observations changed nothing; the check is vacuous")
	}
}
