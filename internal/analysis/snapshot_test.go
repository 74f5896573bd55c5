package analysis

import (
	"fmt"
	"math/rand"
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

func stableBytes(t *testing.T, r *Results) []byte {
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

// TestVantageInterleavingOrderIndependent feeds analysis a
// multi-vantage crawl in two orders: consecutive per-vantage blocks,
// and vantages interleaved as Stream's completion order can deliver
// them. The canonical finalize must make both feeds byte-identical,
// through Finalize and through a Snapshot taken after the last Observe.
func TestVantageInterleavingOrderIndependent(t *testing.T) {
	base := fixtureLogs(40)
	var blocked []instrument.VisitLog
	for _, vant := range []string{"eu-west", "us-east"} {
		for _, v := range base {
			v.Vantage = vant
			// Regions observe different tails; perturb so rollups differ.
			if vant == "us-east" {
				v.Timing.LoadEvent *= 0.7
			}
			blocked = append(blocked, v)
		}
	}
	// Interleave the two vantage blocks pairwise (worst-case mixing).
	half := len(blocked) / 2
	interleaved := make([]instrument.VisitLog, 0, len(blocked))
	for i := 0; i < half; i++ {
		interleaved = append(interleaved, blocked[i], blocked[half+i])
	}
	want := stableBytes(t, New().Run(blocked))
	if got := stableBytes(t, New().Run(interleaved)); string(got) != string(want) {
		t.Fatal("interleaved vantage feed diverges from blocked feed (single analyzer)")
	}
	an := New()
	for _, v := range interleaved {
		an.Observe(v)
	}
	if got := stableBytes(t, an.Snapshot()); string(got) != string(want) {
		t.Fatal("interleaved vantage feed diverges from blocked feed (Snapshot)")
	}
}
