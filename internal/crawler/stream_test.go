package crawler

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cookieguard/internal/instrument"
	"cookieguard/internal/webgen"
)

// crawlAll drains Stream and returns every delivered log, in completion
// order, with the stream's error.
func crawlAll(ctx context.Context, sites []string, opts Options) ([]instrument.VisitLog, error) {
	logs, errs := Stream(ctx, sites, opts)
	var out []instrument.VisitLog
	for l := range logs {
		out = append(out, l)
	}
	return out, <-errs
}

// buildSites generates a web and returns it with its crawlable URL list.
func buildSites(t *testing.T, n int) (*webgen.Web, []string) {
	t.Helper()
	w := webgen.Build(webgen.DefaultConfig(n))
	var domains []string
	for _, s := range w.Sites {
		domains = append(domains, s.Domain)
	}
	return w, SiteURLs(domains)
}

func TestStreamDeliversAllSites(t *testing.T) {
	w, sites := buildSites(t, 30)
	logs, errs := Stream(context.Background(), sites, Options{
		Internet: w.BuildInternet(),
		Workers:  4,
	})
	seen := map[string]int{}
	for l := range logs {
		seen[l.Site]++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if len(seen) != 30 {
		t.Fatalf("distinct sites = %d, want 30", len(seen))
	}
	for _, s := range w.Sites {
		if seen[s.Domain] != 1 {
			t.Errorf("site %s delivered %d times", s.Domain, seen[s.Domain])
		}
	}
}

// TestStreamBoundedResidency verifies the streaming core's memory claim:
// with a slow consumer, the number of logs produced but not yet consumed
// never exceeds O(workers) — the channel bound plus in-flight sends —
// regardless of the site count.
func TestStreamBoundedResidency(t *testing.T) {
	const nSites, workers = 60, 3
	w, sites := buildSites(t, nSites)
	var sent atomic.Int64
	logs, errs := Stream(context.Background(), sites, Options{
		Internet: w.BuildInternet(),
		Workers:  workers,
		// ProgressStats fires after a log is handed to the stream, so
		// sent-consumed bounds the logs resident outside the workers.
		ProgressStats: func(ps ProgressStats) { sent.Store(int64(ps.Done)) },
	})
	consumed, peak := 0, 0
	for range logs {
		consumed++
		if out := int(sent.Load()) - consumed; out > peak {
			peak = out
		}
		time.Sleep(time.Millisecond) // slow consumer: force backpressure
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if consumed != nSites {
		t.Fatalf("consumed %d logs, want %d", consumed, nSites)
	}
	// Bound: workers buffered in the channel + one mid-handoff. A batch
	// materialization would reach ~nSites.
	if limit := workers + 1; peak > limit {
		t.Errorf("peak resident logs = %d, want <= %d (workers=%d, sites=%d)",
			peak, limit, workers, nSites)
	}
}

// TestStreamCancelDrainsWorkers cancels mid-stream and verifies the
// stream stops early, reports the context error, and leaks no worker or
// dispatcher goroutines.
func TestStreamCancelDrainsWorkers(t *testing.T) {
	w, sites := buildSites(t, 60)
	in := w.BuildInternet()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs, errs := Stream(ctx, sites, Options{Internet: in, Workers: 4, Interact: true})
	received := 0
	for range logs {
		received++
		if received == 3 {
			cancel()
		}
	}
	err := <-errs
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if received >= 60 {
		t.Errorf("stream delivered all %d sites despite cancellation", received)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancel: %d -> %d", before, runtime.NumGoroutine())
}

// TestStreamAbandonedConsumer cancels and walks away without draining;
// the pool and dispatcher must still unwind.
func TestStreamAbandonedConsumer(t *testing.T) {
	w, sites := buildSites(t, 40)
	in := w.BuildInternet()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	logs, _ := Stream(ctx, sites, Options{Internet: in, Workers: 4})
	<-logs // take one log, then abandon the channel entirely
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after abandon: %d -> %d", before, runtime.NumGoroutine())
}

func TestStreamRequiresInternet(t *testing.T) {
	logs, errs := Stream(context.Background(), []string{"https://www.x.com/"}, Options{})
	for range logs {
		t.Fatal("no logs expected")
	}
	if err := <-errs; err == nil {
		t.Fatal("expected configuration error")
	}
}
