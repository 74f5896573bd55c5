package analysis

import (
	"reflect"
	"testing"

	"cookieguard/internal/instrument"
)

// failureLogs is a small fixed mix: one clean visit, one degraded visit
// (failed script with retries), and two fatal visits (timeout, http).
func failureLogs() []instrument.VisitLog {
	clean := baseLog()
	clean.Cookies = []instrument.CookieEvent{writeEv(instrument.APIDocument, "a", "1", setterJS, 60)}

	degraded := baseLog()
	degraded.Cookies = clean.Cookies
	degraded.Requests = append(degraded.Requests, instrument.RequestEvent{
		URL: "https://cdn.other.example/read.js", Kind: "script",
		Failed: true, Failure: "conn-reset", Retries: 2, MainFrame: true,
	})

	timedOut := instrument.VisitLog{Site: "down.example", OK: false, Failure: "timeout",
		Error: "netsim: injected timeout: www.down.example"}
	serverErr := instrument.VisitLog{Site: "broken.example", OK: false, Failure: "http",
		Error: "browser: visit https://www.broken.example/: document status 503"}

	return []instrument.VisitLog{clean, degraded, timedOut, serverErr}
}

func TestFailureRollup(t *testing.T) {
	res := New().Run(failureLogs())
	f := res.Failures
	if f.VisitsFailed != 2 {
		t.Errorf("VisitsFailed = %d, want 2", f.VisitsFailed)
	}
	if f.VisitsDegraded != 1 {
		t.Errorf("VisitsDegraded = %d, want 1 (the failed-script visit)", f.VisitsDegraded)
	}
	if f.RequestsFailed != 1 || f.Retries != 2 {
		t.Errorf("RequestsFailed=%d Retries=%d, want 1 and 2", f.RequestsFailed, f.Retries)
	}
	wantVisit := map[string]int{"timeout": 1, "http": 1}
	if !reflect.DeepEqual(f.VisitFailures, wantVisit) {
		t.Errorf("VisitFailures = %v, want %v", f.VisitFailures, wantVisit)
	}
	wantReq := map[string]int{"conn-reset": 1}
	if !reflect.DeepEqual(f.RequestFailures, wantReq) {
		t.Errorf("RequestFailures = %v, want %v", f.RequestFailures, wantReq)
	}

	rows := res.FailureTable()
	want := []FailureRow{
		{Scope: "visit", Class: "http", Count: 1},
		{Scope: "visit", Class: "timeout", Count: 1},
		{Scope: "request", Class: "conn-reset", Count: 1},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("FailureTable = %v, want %v", rows, want)
	}

	// Fatal visits are excluded from the measurement, not from the
	// rollup: they count toward SitesTotal but not SitesComplete.
	if res.Summary.SitesTotal != 4 || res.Summary.SitesComplete != 2 {
		t.Errorf("SitesTotal=%d SitesComplete=%d, want 4 and 2",
			res.Summary.SitesTotal, res.Summary.SitesComplete)
	}
}

// TestFailureRollupStreamingMatchesBatch: the rollup is identical on the
// incremental path, like every other aggregate.
func TestFailureRollupStreamingMatchesBatch(t *testing.T) {
	batch := New().Run(failureLogs())
	an := New()
	for _, v := range failureLogs() {
		an.Observe(v)
	}
	streamed := an.Finalize()
	if !reflect.DeepEqual(batch.Failures, streamed.Failures) {
		t.Errorf("streamed rollup %+v != batch %+v", streamed.Failures, batch.Failures)
	}
}

// TestFailureRollupZeroOnCleanLogs: a fault-free log set leaves every
// counter at zero and the table empty.
func TestFailureRollupZeroOnCleanLogs(t *testing.T) {
	clean := baseLog()
	clean.Cookies = []instrument.CookieEvent{writeEv(instrument.APIDocument, "a", "1", setterJS, 60)}
	res := New().Run([]instrument.VisitLog{clean, clean})
	f := res.Failures
	if f.VisitsFailed != 0 || f.VisitsDegraded != 0 || f.RequestsFailed != 0 || f.Retries != 0 {
		t.Errorf("clean logs produced failure counts: %+v", f)
	}
	if rows := res.FailureTable(); len(rows) != 0 {
		t.Errorf("clean logs produced failure rows: %v", rows)
	}
}
