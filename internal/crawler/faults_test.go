package crawler

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"cookieguard/internal/browser"
	"cookieguard/internal/netsim"
	"cookieguard/internal/webgen"
)

// TestDroppedVisitAccountedInProgress: a worker cancelled while its
// delivery is blocked drops the finished log — but the visit still
// happened, and ProgressStats must say so. The final serialized Done
// therefore equals the number of visits performed, delivered or not,
// whether or not a stateful scheduler takes the worker's feedback. The
// web is fault-free, so no visit is requeued and every visit starts with
// exactly one first attempt at its landing document, which a
// pass-through fault model counts.
func TestDroppedVisitAccountedInProgress(t *testing.T) {
	w, sites := buildSites(t, 20)
	landing := make(map[string]bool, len(sites))
	for _, u := range sites {
		landing[u] = true
	}
	for _, tc := range []struct {
		name       string
		secondPass bool
		breaker    Breaker
	}{
		{name: "feedback-free"},
		{name: "second-pass", secondPass: true},
		{name: "breaker", breaker: Breaker{Enabled: true, RoundVisits: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var started, lastDone atomic.Int64
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			in := w.BuildInternet()
			in.SetFaultModel(func(req *http.Request, s netsim.Stamp) netsim.FaultDecision {
				if s.Attempt == 1 && landing[req.URL.String()] {
					started.Add(1)
				}
				return netsim.FaultDecision{}
			})
			out, errc := Stream(ctx, sites, Options{
				Internet:      in,
				Workers:       3,
				ProgressStats: func(ps ProgressStats) { lastDone.Store(int64(ps.Done)) },
				SecondPass:    tc.secondPass,
				Breaker:       tc.breaker,
			})

			// Consume nothing: the buffer fills, workers block in delivery,
			// and cancellation forces them onto the drop path.
			for started.Load() < 4 {
				time.Sleep(time.Millisecond)
			}
			cancel()
			if err := <-errc; err == nil {
				t.Fatal("expected context error")
			}
			// The pool has fully drained (errc closed after wg.Wait): every
			// started visit completed and must have been accounted.
			if got, want := lastDone.Load(), started.Load(); got != want {
				t.Fatalf("final ProgressStats done = %d, but %d visits ran — dropped logs uncounted", got, want)
			}
			drained := 0
			for range out {
				drained++
			}
			if drained >= int(started.Load()) {
				t.Fatalf("nothing was dropped (delivered %d of %d); test exercised nothing", drained, started.Load())
			}
		})
	}
}

// crawlJSON crawls sites and returns per-site marshalled records.
func crawlJSON(t *testing.T, in *netsim.Internet, sites []string, workers int, retry browser.RetryPolicy) map[string]string {
	t.Helper()
	res, err := crawlAll(context.Background(), sites, Options{
		Internet: in,
		Workers:  workers,
		Interact: true,
		Seed:     5,
		Retry:    retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(res))
	for _, v := range res {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[v.Site] = string(b)
	}
	return out
}

// TestFaultCrawlDeterministicAcrossWorkers: with a seeded fault model
// and retries enabled, per-site records are byte-identical across runs
// and worker counts — the acceptance criterion for the fault fabric.
func TestFaultCrawlDeterministicAcrossWorkers(t *testing.T) {
	cfg := webgen.DefaultConfig(40)
	w := webgen.Build(cfg)
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}
	sites := SiteURLs(domains)
	faults := netsim.UniformFaults(0.15, 99)
	retry := browser.RetryPolicy{MaxAttempts: 3}

	build := func() *netsim.Internet {
		in := w.BuildInternet()
		in.SetFaultModel(netsim.SeededFaults(faults))
		return in
	}
	serial := crawlJSON(t, build(), sites, 1, retry)
	wide := crawlJSON(t, build(), sites, 7, retry)
	if len(serial) != len(wide) {
		t.Fatalf("site counts diverge: %d vs %d", len(serial), len(wide))
	}
	for site, rec := range serial {
		if wide[site] != rec {
			t.Errorf("site %s: record differs between 1 and 7 workers under faults", site)
		}
	}
	if faultedRecords(t, serial) == 0 {
		t.Fatal("15% fault rate left no trace in 40 sites; fault fabric inert")
	}
}

// TestAllFailingHostTerminatesWithinBudget: a crawl over a host that
// times out on every attempt terminates within the configured attempt
// budget and classifies the visit in the taxonomy.
func TestAllFailingHostTerminatesWithinBudget(t *testing.T) {
	in := netsim.New()
	in.RegisterFunc("www.down.example", func(w http.ResponseWriter, r *http.Request) {})
	var attempts atomic.Int64
	in.SetFaultModel(func(*http.Request, netsim.Stamp) netsim.FaultDecision {
		attempts.Add(1)
		return netsim.FaultDecision{Kind: netsim.FaultTimeout, LatencyMs: 250}
	})

	res, err := crawlAll(context.Background(), []string{"https://www.down.example/"}, Options{
		Internet: in,
		Workers:  1,
		Interact: true,
		Retry:    browser.RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("logs = %d, want 1", len(res))
	}
	v := res[0]
	if v.OK || v.Failure != string(browser.FailTimeout) {
		t.Fatalf("visit = ok=%v failure=%q, want failed with class timeout", v.OK, v.Failure)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("fabric saw %d attempts, want exactly the budget of 3", got)
	}
	// The lost visit keeps its trace: the document request with its
	// retries and class survives into the log for the failure rollup.
	if len(v.Requests) != 1 {
		t.Fatalf("failed visit logged %d requests, want its document request", len(v.Requests))
	}
	if r := v.Requests[0]; !r.Failed || r.Failure != string(browser.FailTimeout) || r.Retries != 2 {
		t.Fatalf("document record = %+v, want failed/timeout with 2 retries", r)
	}
	if len(filterComplete(res)) != 0 {
		t.Fatal("failed visit passed the completeness filter")
	}
}
