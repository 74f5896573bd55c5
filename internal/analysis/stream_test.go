package analysis

import (
	"reflect"
	"testing"

	"cookieguard/internal/instrument"
)

// streamFixture builds a varied log sequence: cross-domain overwrite,
// delete, exfiltration, an HTTP-set cookie, and an incomplete visit.
func streamFixture() []instrument.VisitLog {
	v1 := baseLog()
	v1.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_ga", "GA1.1.444332364.1746838827", setterJS, 3600),
		writeEv(instrument.APIDocument, "_ga", "GA1.1.999999999.1746838827", readerJS, 7200),
		writeEv(instrument.APICookieStore, "cs_id", "csvalue1234567", setterJS, 600),
	}
	v1.Requests = append(v1.Requests, instrument.RequestEvent{
		URL:             "https://px.dest.example/t?ga=NDQ0MzMyMzY0",
		Kind:            "beacon",
		InitiatorScript: readerJS,
		InitiatorDomain: "other.example",
		MainFrame:       true,
	})

	v2 := baseLog()
	v2.Site = "news.example"
	v2.URL = "https://www.news.example/"
	v2.Cookies = []instrument.CookieEvent{
		{Op: instrument.OpHTTPSet, API: instrument.APIHTTP, Name: "srv",
			Value: "serverval12345678", Domain: "news.example", MainFrame: true},
		writeEv(instrument.APIDocument, "srv", "clobbered12345678", readerJS, 60),
		deleteEv(instrument.APIDocument, "srv", setterJS),
	}

	incomplete := instrument.VisitLog{Site: "dead.example", OK: false}

	return []instrument.VisitLog{v1, incomplete, v2}
}

// TestObserveFinalizeMatchesRun is the streaming-equivalence contract:
// folding logs in one at a time must produce exactly the Results of the
// batch Run over the same sequence.
func TestObserveFinalizeMatchesRun(t *testing.T) {
	logs := streamFixture()

	batch := New().Run(logs)

	inc := New()
	for _, v := range logs {
		inc.Observe(v)
	}
	streaming := inc.Finalize()

	if !reflect.DeepEqual(batch, streaming) {
		t.Fatalf("streaming Results diverge from batch:\nbatch:     %+v\nstreaming: %+v", batch, streaming)
	}
	if len(allEvents(batch)) == 0 {
		t.Fatal("fixture produced no events; equality check is vacuous")
	}
}

// TestRunDeterministic guards the sorted-candidate fix: repeated runs
// over the same logs must order Events identically.
func TestRunDeterministic(t *testing.T) {
	logs := streamFixture()
	first := New().Run(logs)
	for i := 0; i < 10; i++ {
		if again := New().Run(logs); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

// TestAnalyzerReusableAfterFinalize: Finalize resets the analyzer, so a
// second run starts from scratch instead of accumulating.
func TestAnalyzerReusableAfterFinalize(t *testing.T) {
	logs := streamFixture()
	an := New()
	first := an.Run(logs)
	second := an.Run(logs)
	if first.Summary.SitesTotal != second.Summary.SitesTotal {
		t.Fatalf("second run accumulated: %d vs %d sites",
			first.Summary.SitesTotal, second.Summary.SitesTotal)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("reused analyzer produced different Results")
	}
}

// TestFinalizeWithoutObserve yields an empty, well-formed Results, and
// pins the StableJSON bytes of an empty run and of a run whose sites
// have rows but no events: the top-level events stay null.
func TestFinalizeWithoutObserve(t *testing.T) {
	res := New().Finalize()
	if res.Summary.SitesTotal != 0 || len(res.Pairs) != 0 || len(allEvents(res)) != 0 {
		t.Fatalf("empty finalize not empty: %+v", res)
	}
	if res.Pairs == nil || res.PairsByAPI == nil || res.sites == nil {
		t.Fatal("maps not initialized")
	}
	const empty = `{"summary":{"sites_total":0,"sites_complete":0,"sites_with_third_party":0,` +
		`"mean_tp_scripts_per_site":0,"tracker_script_share":0,"mean_tp_cookies_per_site":0,` +
		`"mean_fp_cookies_per_site":0,"sites_using_doc_cookie":0,"sites_using_cookie_store":0,` +
		`"unique_pairs_document":0,"unique_pairs_cookie_store":0,"direct_scripts":0,` +
		`"indirect_scripts":0,"indirect_tracker_share":0,"sites_with_cross_domain_dom":0},` +
		`"pairs":[],"pairs_by_api":{},"sites":[],"events":null,` +
		`"failures":{"visits_failed":0,"visits_degraded":0,"requests_failed":0,"retries":0},"vantages":[]}`
	if got := stableBytes(t, res); string(got) != empty {
		t.Errorf("empty run:\ngot  %s\nwant %s", got, empty)
	}

	quiet := baseLog()
	quiet.Cookies = []instrument.CookieEvent{
		writeEv(instrument.APIDocument, "_tid", "abcdefgh12345678", setterJS, 3600),
	}
	other := quiet
	other.Site, other.URL = "news.example", "https://www.news.example/"
	const noEvents = `{"summary":{"sites_total":2,"sites_complete":2,"sites_with_third_party":2,` +
		`"mean_tp_scripts_per_site":2,"tracker_script_share":0,"mean_tp_cookies_per_site":1,` +
		`"mean_fp_cookies_per_site":0,"sites_using_doc_cookie":2,"sites_using_cookie_store":0,` +
		`"unique_pairs_document":1,"unique_pairs_cookie_store":0,"direct_scripts":4,` +
		`"indirect_scripts":0,"indirect_tracker_share":0,"sites_with_cross_domain_dom":0},` +
		`"pairs":[{"name":"_tid","owner":"tracker.example","api":"document.cookie"}],` +
		`"pairs_by_api":{"document.cookie":1},"sites":[{"site":"news.example"},{"site":"shop.example"}],` +
		`"events":null,"failures":{"visits_failed":0,"visits_degraded":0,"requests_failed":0,"retries":0},` +
		`"vantages":[{"vantage":"","visits":2,"complete":2,"failed":0,"load_mean_ms":0,"load_p50_ms":0,` +
		`"load_p90_ms":0,"load_p99_ms":0,"load_max_ms":0}]}`
	if got := stableBytes(t, New().Run([]instrument.VisitLog{quiet, other})); string(got) != noEvents {
		t.Errorf("run without events:\ngot  %s\nwant %s", got, noEvents)
	}
}
