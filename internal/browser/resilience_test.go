package browser

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cookieguard/internal/netsim"
)

// resilienceNet serves one page with one script, one image, and one
// beaconless iframe-free body, so tests can fault individual resources.
func resilienceNet(t *testing.T) *netsim.Internet {
	t.Helper()
	in := netsim.New()
	in.RegisterFunc("www.site.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script src="https://cdn.test/lib.js"></script></head>`+
			`<body><img src="/logo.png"></body></html>`)
	})
	in.RegisterFunc("cdn.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `let x = 1;`)
	})
	return in
}

// faultNTimes injects a fault on the first n attempts of matching URLs.
func faultNTimes(n int, kind netsim.FaultKind, match string) netsim.FaultModel {
	return func(req *http.Request, s netsim.Stamp) netsim.FaultDecision {
		if match != "" && !strings.Contains(req.URL.String(), match) {
			return netsim.FaultDecision{}
		}
		if s.Attempt <= n {
			return netsim.FaultDecision{Kind: kind, LatencyMs: 100, KeepFrac: 0.5}
		}
		return netsim.FaultDecision{}
	}
}

// TestRetryRescuesTransientFault: a document that resets on the first
// two attempts loads on the third, records the retries, and is not
// marked failed.
func TestRetryRescuesTransientFault(t *testing.T) {
	in := resilienceNet(t)
	in.SetFaultModel(faultNTimes(2, netsim.FaultConnReset, "www.site.test"))
	b, err := New(Options{Internet: in, Retry: RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.site.test/")
	if err != nil {
		t.Fatalf("visit failed despite retry budget: %v", err)
	}
	doc := p.Requests[0]
	if doc.Failed || doc.Failure != FailNone || doc.Retries != 2 {
		t.Fatalf("document record = %+v, want retries=2 and no failure", doc)
	}
	if len(p.Scripts) != 1 || p.Scripts[0].Err != nil {
		t.Fatalf("script did not run after document retry: %+v", p.Scripts)
	}
}

// TestRetryBudgetBoundedOnPermanentFault: a host that times out on every
// attempt exhausts exactly MaxAttempts tries and classifies as timeout.
func TestRetryBudgetBoundedOnPermanentFault(t *testing.T) {
	in := resilienceNet(t)
	attempts := 0
	in.SetFaultModel(func(*http.Request, netsim.Stamp) netsim.FaultDecision {
		attempts++
		return netsim.FaultDecision{Kind: netsim.FaultTimeout, LatencyMs: 50}
	})
	b, err := New(Options{Internet: in, Retry: RetryPolicy{MaxAttempts: 4}})
	if err != nil {
		t.Fatal(err)
	}
	start := b.Clock().Now()
	_, err = b.Visit("https://www.site.test/")
	if err == nil {
		t.Fatal("visit succeeded against an always-failing host")
	}
	if ClassifyError(err) != FailTimeout {
		t.Fatalf("failure class = %q, want timeout", ClassifyError(err))
	}
	if attempts != 4 {
		t.Fatalf("attempts = %d, want exactly the budget of 4", attempts)
	}
	// Each timeout charged its stall plus three backoffs: virtual time moved.
	if b.Clock().Since(start).Milliseconds() < 200 {
		t.Fatalf("virtual clock barely moved (%v); failed attempts must cost time", b.Clock().Since(start))
	}
}

// TestTruncatedBodyRetried: a body cut short on the first attempt is a
// retryable failure; the second attempt delivers the intact document.
func TestTruncatedBodyRetried(t *testing.T) {
	in := resilienceNet(t)
	in.SetFaultModel(faultNTimes(1, netsim.FaultTruncate, "www.site.test"))
	b, err := New(Options{Internet: in, Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.site.test/")
	if err != nil {
		t.Fatalf("truncation not retried: %v", err)
	}
	if p.Requests[0].Retries != 1 {
		t.Fatalf("document retries = %d, want 1", p.Requests[0].Retries)
	}
	// Without a retry budget the same truncation is terminal.
	b2, _ := New(Options{Internet: in})
	if _, err := b2.Visit("https://www.site.test/"); ClassifyError(err) != FailTruncated {
		t.Fatalf("unretried truncation class = %q, want truncated", ClassifyError(err))
	}
}

// TestGracefulSubresourceDegradation: a missing third-party script host
// (NXDOMAIN) never aborts the visit — the failure is classified on the
// request record, not retried (DNS is permanent), and the rest of the
// page still loads.
func TestGracefulSubresourceDegradation(t *testing.T) {
	in := netsim.New()
	in.RegisterFunc("www.site.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script src="https://gone.test/lib.js"></script></head>`+
			`<body><img src="https://alsogone.test/p.png"><iframe src="https://noframe.test/"></iframe></body></html>`)
	})
	b, err := New(Options{Internet: in, Retry: RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Visit("https://www.site.test/")
	if err != nil {
		t.Fatalf("subresource failures aborted the visit: %v", err)
	}
	byURL := map[string]Request{}
	for _, r := range p.Requests {
		byURL[r.URL] = r
	}
	for _, u := range []string{"https://gone.test/lib.js", "https://alsogone.test/p.png", "https://noframe.test/"} {
		r := byURL[u]
		if !r.Failed || r.Failure != FailDNS {
			t.Errorf("request %s = %+v, want failed with class dns", u, r)
		}
		if r.Retries != 0 {
			t.Errorf("request %s retried %d times; DNS failures are permanent", u, r.Retries)
		}
	}
	if len(p.Scripts) != 1 || p.Scripts[0].Err == nil {
		t.Fatalf("failed script not recorded: %+v", p.Scripts)
	}
}
