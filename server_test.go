package cookieguard

// Tests for cookieguard.Server and the served run path: served-vs-
// unserved Results equality, the index/ETag blocking-query protocol
// over real HTTP, and the allocation bound on the cached read path.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cookieguard/internal/resultstore"
)

func stableJSON(t *testing.T, r *Results) string {
	t.Helper()
	b, err := r.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServedRunMatchesUnserved: the snapshot-publishing run must return
// Results byte-identical to the plain unserved run, clean and under
// faults, across worker counts, and on a multi-lane crawl (two
// vantages × two personas under the full scheduler stack).
func TestServedRunMatchesUnserved(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"clean-2w", []Option{WithSites(50), WithWorkers(2)}},
		{"clean-8w", []Option{WithSites(50), WithWorkers(8)}},
		{"faults-8w", []Option{WithSites(50), WithWorkers(8),
			WithFaults(UniformFaults(0.1, 7)), WithRetryPolicy(DefaultRetryPolicy())}},
		{"lanes-4w", []Option{WithSites(30), WithWorkers(4),
			WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
			WithPersonas("accept", "reject"),
			WithRetryPolicy(DefaultRetryPolicy()),
			WithBreaker(Breaker{Enabled: true}), WithBreakerAutopilot(),
			WithSecondPass(true)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pp := New(tc.opts...)
			plain, err := pp.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			served := New(append([]Option{WithSnapshotEvery(7)}, tc.opts...)...)
			got, err := served.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stableJSON(t, got) != stableJSON(t, plain) {
				t.Fatal("served run Results diverge from unserved run")
			}
			if got.Summary.SitesComplete == 0 {
				t.Fatal("no complete sites; equality check is vacuous")
			}
			if faulted := !strings.HasPrefix(tc.name, "clean"); faulted && pp.Net.Faults() == 0 {
				t.Fatal("the fabric injected no fault; the faulted comparison is vacuous")
			}
			// The finalize-time publish is the exact returned value.
			snap := served.ResultStore().Latest()
			if !snap.Progress.Final {
				t.Fatal("final snapshot not marked Final")
			}
			if snap.Results != got {
				t.Fatal("final published Results is not the value Run returned")
			}
		})
	}
}

// TestServedRunPublishesMidCrawl: with a small cadence the store index
// advances during the crawl, not just at finalize.
func TestServedRunPublishesMidCrawl(t *testing.T) {
	p := New(WithSites(40), WithWorkers(4), WithSnapshotEvery(5))
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if idx := p.ResultStore().Index(); idx < 3 {
		t.Fatalf("store index %d after 40 visits at cadence 5; want several mid-crawl publishes", idx)
	}
}

// serveTestPipeline runs a small served crawl to completion and returns
// the pipeline with a populated store plus an httptest server over it.
func serveTestPipeline(t *testing.T) (*Pipeline, *httptest.Server) {
	t.Helper()
	p := New(WithSites(30), WithWorkers(4), WithSnapshotEvery(8))
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.NewServer())
	t.Cleanup(ts.Close)
	return p, ts
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServerEndpoints smoke-tests every endpoint over real HTTP and
// checks the version headers.
func TestServerEndpoints(t *testing.T) {
	p, ts := serveTestPipeline(t)
	idx := strconv.FormatUint(p.ResultStore().Index(), 10)

	paths := []string{
		"/v1/results", "/v1/summary", "/v1/sites",
		"/v1/tables/retention", "/v1/tables/failures",
		"/v1/tables/vantages", "/v1/tables/actions",
		"/v1/progress", "/v1/stats",
	}
	for _, path := range paths {
		resp, body := get(t, ts.URL+path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !json.Valid(body) {
			t.Fatalf("%s: invalid JSON: %.120s", path, body)
		}
		if path == "/v1/stats" {
			// Live endpoint, unversioned; it carries the artifact
			// cache's residency beside its hit counters.
			var st LiveStats
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if c := st.Cache; c.ProgramHits == 0 || c.ProgramResidentBytes <= 0 || c.DOMResidentBytes <= 0 {
				t.Fatalf("/v1/stats cache lacks residency: %+v", c)
			}
			continue
		}
		if got := resp.Header.Get("X-Result-Index"); got != idx {
			t.Fatalf("%s: X-Result-Index %q, want %q", path, got, idx)
		}
		if got := resp.Header.Get("ETag"); got != `"cg-`+idx+`"` {
			t.Fatalf("%s: ETag %q", path, got)
		}
	}

	// /v1/results matches StableJSON of the final analysis.
	_, body := get(t, ts.URL+"/v1/results", nil)
	if string(body) != stableJSON(t, p.ResultStore().Latest().Results) {
		t.Fatal("/v1/results body diverges from StableJSON of the final snapshot")
	}

	// Per-site detail: first site from /v1/sites resolves, unknown 404s.
	var sites []struct {
		Site string `json:"site"`
	}
	_, body = get(t, ts.URL+"/v1/sites", nil)
	if err := json.Unmarshal(body, &sites); err != nil || len(sites) == 0 {
		t.Fatalf("no site rows: %v %.120s", err, body)
	}
	if resp, _ := get(t, ts.URL+"/v1/sites/"+sites[0].Site, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("site detail: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/sites/nosuch.example", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown site: status %d, want 404", resp.StatusCode)
	}
}

// TestServerBlockingQuery exercises the index protocol over HTTP: stale
// index answers immediately, current index blocks until publish, wait
// timeout returns the unchanged index, If-None-Match yields 304.
func TestServerBlockingQuery(t *testing.T) {
	p, ts := serveTestPipeline(t)
	store := p.ResultStore()
	cur := store.Index()
	curStr := strconv.FormatUint(cur, 10)

	// Stale index: immediate.
	start := time.Now()
	resp, _ := get(t, ts.URL+"/v1/tables/retention?index=0&wait=30s", nil)
	if time.Since(start) > 2*time.Second {
		t.Fatal("stale-index query blocked")
	}
	if got := resp.Header.Get("X-Result-Index"); got != curStr {
		t.Fatalf("stale query index %q, want %q", got, curStr)
	}

	// Current index with short wait: blocks, then returns unchanged.
	start = time.Now()
	resp, _ = get(t, ts.URL+"/v1/tables/retention?index="+curStr+"&wait=200ms", nil)
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("up-to-date query returned in %v, want ~200ms block", elapsed)
	}
	if got := resp.Header.Get("X-Result-Index"); got != curStr {
		t.Fatalf("timed-out query index %q, want unchanged %q", got, curStr)
	}

	// Current index released by a publish.
	released := make(chan string, 1)
	go func() {
		resp, _ := get(t, ts.URL+"/v1/progress?index="+curStr+"&wait=30s", nil)
		released <- resp.Header.Get("X-Result-Index")
	}()
	time.Sleep(100 * time.Millisecond)
	store.Publish(resultstore.Progress{Done: 1, Total: 1}, store.Latest().Results)
	select {
	case got := <-released:
		want := strconv.FormatUint(cur+1, 10)
		if got != want {
			t.Fatalf("released query index %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked query not released by publish")
	}

	// Conditional request on the (new) current ETag: 304, empty body.
	idx := strconv.FormatUint(store.Index(), 10)
	resp, body := get(t, ts.URL+"/v1/summary", map[string]string{"If-None-Match": `"cg-` + idx + `"`})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional request: status %d, body %d bytes; want 304 empty", resp.StatusCode, len(body))
	}
}

// TestServerQueryParams checks which blocking-query parameters answer
// 400: a ?wait that is not a duration is refused with or without ?index,
// and a valid ?wait without ?index answers at once. The store is closed,
// so no query parks.
func TestServerQueryParams(t *testing.T) {
	p := New(WithSites(5), WithSnapshotEvery(100))
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.SiteRows()
	if len(rows) == 0 {
		t.Fatal("no complete site to query")
	}
	p.ResultStore().Close()
	srv := p.NewServer()
	etag := `"cg-` + strconv.FormatUint(p.ResultStore().Index(), 10) + `"`
	for _, path := range []string{"/v1/summary", "/v1/sites/" + rows[0].Site} {
		for _, tc := range []struct {
			query string
			want  int
		}{
			{"wait=bad", http.StatusBadRequest},
			{"wait=5s", http.StatusOK},
			{"index=1&wait=bad", http.StatusBadRequest},
			{"index=bad&wait=5s", http.StatusBadRequest},
			{"index=1&wait=5s", http.StatusOK},
		} {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path+"?"+tc.query, nil))
			if w.Code != tc.want {
				t.Errorf("GET %s?%s: status %d, want %d (%s)", path, tc.query, w.Code, tc.want, strings.TrimSpace(w.Body.String()))
			}
		}
		// A conditional request on the current ETag: 304, empty body.
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("If-None-Match", etag)
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
			t.Errorf("GET %s If-None-Match %s: status %d, body %d bytes; want 304 empty", path, etag, w.Code, w.Body.Len())
		}
	}
}

// TestCachedReadPathAllocs is the acceptance bound on the cached read
// path: repeat requests at an unchanged index must serve the cached
// encoding — no re-marshal of the analysis. Handler invocations through
// the mux on a warmed cache must stay under a small constant allocation
// budget regardless of result size. The paths cover the full results,
// a table polled at a stale index (what dashboards poll between
// publishes) and the summary.
func TestCachedReadPathAllocs(t *testing.T) {
	p, _ := serveTestPipeline(t)
	srv := p.NewServer()

	for _, path := range []string{"/v1/results", "/v1/tables/retention?index=0", "/v1/summary"} {
		t.Run(path, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			// Warm the encoding cache, then measure steady-state polls
			// with a reused discarding writer.
			w := &nopResponseWriter{h: make(http.Header)}
			srv.ServeHTTP(w, req)
			warmBody, warmFirst := w.n, w.first
			if warmBody == 0 {
				t.Fatal("warm-up request wrote no body")
			}

			allocs := testing.AllocsPerRun(200, func() {
				w.reset()
				srv.ServeHTTP(w, req)
			})
			// The cached path only parses the query and copies headers;
			// a re-marshal of the full results allocates hundreds of
			// times even at this size.
			if allocs > 60 {
				t.Fatalf("cached read path allocates %.0f/op; want cached encoding (≤60)", allocs)
			}

			// Index must not have advanced, and the bytes must be the
			// cache's: the same length from the same backing array. A
			// re-marshal of a small table costs few allocations, but
			// always writes from a fresh buffer.
			w.reset()
			srv.ServeHTTP(w, req)
			if w.n != warmBody {
				t.Fatalf("cached poll wrote %d bytes, warm-up wrote %d", w.n, warmBody)
			}
			if w.first != warmFirst {
				t.Fatal("cached poll wrote a re-encoded body, not the cached one")
			}
		})
	}
}

// nopResponseWriter discards the body (counting bytes, and keeping the
// address of its first byte) and reuses its header map, keeping the
// measurement focused on the handler's own allocations.
type nopResponseWriter struct {
	h     http.Header
	n     int
	first *byte
}

func (w *nopResponseWriter) Header() http.Header { return w.h }
func (w *nopResponseWriter) WriteHeader(int)     {}
func (w *nopResponseWriter) Write(b []byte) (int, error) {
	if w.first == nil && len(b) > 0 {
		w.first = &b[0]
	}
	w.n += len(b)
	return len(b), nil
}
func (w *nopResponseWriter) reset() {
	w.n, w.first = 0, nil
	clear(w.h)
}

// TestStartServerIdempotent: the first bind wins; later calls return the
// same address, and a bad address surfaces as an error from Run.
func TestStartServerIdempotent(t *testing.T) {
	p := New(WithSites(5))
	addr1, err := p.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := p.StartServer("127.0.0.1:0")
	if err != nil || addr2 != addr1 {
		t.Fatalf("second StartServer = (%q, %v), want (%q, nil)", addr2, err, addr1)
	}

	bad := New(WithSites(5), WithWorkers(2), WithServer("256.256.256.256:1"))
	if _, err := bad.Run(context.Background()); err == nil {
		t.Fatal("Run with unbindable WithServer address did not fail")
	}
}

// TestServeWhileCrawling is the live-streaming acceptance path: a
// client polling /v1/tables/retention with blocking queries observes at
// least one mid-crawl snapshot before the final one, and the final
// served results equal Run's return value byte for byte.
func TestServeWhileCrawling(t *testing.T) {
	// Throttle visits slightly so the crawl outlives several poll
	// round-trips (the real-time crawl is otherwise near-instant).
	p := New(WithSites(80), WithWorkers(4), WithSnapshotEvery(10),
		WithProgressStats(func(ProgressStats) { time.Sleep(2 * time.Millisecond) }))
	addr, err := p.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type poll struct {
		index uint64
		final bool
	}
	polls := make(chan poll, 64)
	done := make(chan struct{})
	go func() {
		defer close(polls)
		base := "http://" + addr
		var index uint64
		for {
			resp, body := get(t, base+"/v1/progress?index="+strconv.FormatUint(index, 10)+"&wait=2s", nil)
			var pr struct {
				Index uint64 `json:"index"`
				Final bool   `json:"final"`
			}
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Errorf("progress body: %v", err)
				return
			}
			if got := resp.Header.Get("X-Result-Index"); got != strconv.FormatUint(pr.Index, 10) {
				t.Errorf("X-Result-Index %q != body index %d", got, pr.Index)
				return
			}
			if pr.Index > index {
				polls <- poll{pr.Index, pr.Final}
				index = pr.Index
			}
			if pr.Final {
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	res, err := p.Run(context.Background())
	close(done)
	if err != nil {
		t.Fatal(err)
	}

	var seen []poll
	for pl := range polls {
		seen = append(seen, pl)
	}
	if len(seen) < 2 {
		t.Fatalf("poller saw %d snapshot(s); want mid-crawl updates before the final one", len(seen))
	}
	if last := seen[len(seen)-1]; !last.final {
		t.Fatal("poller never saw the final snapshot")
	}

	// Final served bytes equal Run's return value.
	_, body := get(t, "http://"+addr+"/v1/results", nil)
	if string(body) != stableJSON(t, res) {
		t.Fatal("final served /v1/results diverge from Run's return value")
	}
}

// TestServedSitesListingMatchesSiteRows is the differential check on
// the row-reusing /v1/sites encoder: at every index a blocking reader
// sees during a served crawl, the body equals json.Marshal(SiteRows())
// of that snapshot — on a clean crawl and on a personas × vantages
// crawl at 10% faults.
func TestServedSitesListingMatchesSiteRows(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"clean", []Option{WithSites(120), WithWorkers(4)}},
		{"personas-vantages-faults", []Option{WithSites(40), WithWorkers(4),
			WithFaults(UniformFaults(0.1, 7)), WithRetryPolicy(DefaultRetryPolicy()),
			WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
			WithPersonas("accept", "reject")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Throttle visits slightly so the reader catches most
			// publishes while they are still the latest.
			p := New(append([]Option{WithSnapshotEvery(8),
				WithProgressStats(func(ProgressStats) { time.Sleep(200 * time.Microsecond) })}, tc.opts...)...)
			srv, store := p.NewServer(), p.ResultStore()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			compared := make(chan int, 1)
			go func() {
				n := 0
				defer func() { compared <- n }()
				var idx uint64
				for ctx.Err() == nil {
					w := httptest.NewRecorder()
					url := "/v1/sites?index=" + strconv.FormatUint(idx, 10) + "&wait=10s"
					srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
					got, err := strconv.ParseUint(w.Header().Get("X-Result-Index"), 10, 64)
					if err != nil || w.Code != http.StatusOK {
						t.Errorf("status %d, index %q", w.Code, w.Header().Get("X-Result-Index"))
						return
					}
					if got <= idx {
						continue
					}
					idx = got
					// Only the latest snapshot's Results are reachable;
					// skip an index a publish has already replaced.
					snap := store.Latest()
					if snap.Index != got {
						continue
					}
					want, err := json.Marshal(snap.Results.SiteRows())
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(w.Body.Bytes(), want) {
						t.Errorf("index %d: /v1/sites diverges from SiteRows (%d vs %d bytes)", got, w.Body.Len(), len(want))
						return
					}
					n++
					if snap.Progress.Final {
						return
					}
				}
			}()
			if _, err := p.Run(ctx); err != nil {
				t.Fatal(err)
			}
			n := <-compared
			if t.Failed() {
				return
			}
			if n < 3 {
				t.Fatalf("compared %d indexes; want mid-crawl snapshots and the final one", n)
			}
			t.Logf("compared /v1/sites at %d of %d indexes", n, store.Index())
		})
	}
}

// TestServedSitesListingEmptyAndRows: the empty store lists as [], and
// after a crawl each /v1/sites/{site} body is the site's SiteRows entry.
func TestServedSitesListingEmptyAndRows(t *testing.T) {
	p := New(WithSites(30), WithWorkers(4), WithSnapshotEvery(8))
	srv := p.NewServer()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sites", nil))
	if w.Body.String() != "[]" {
		t.Fatalf("empty store lists %q, want []", w.Body.String())
	}

	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if eventCount(res) == 0 {
		t.Fatal("the crawl produced no events; the row check is vacuous")
	}
	for _, row := range res.SiteRows() {
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sites/"+row.Site, nil))
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if w.Code != http.StatusOK || !bytes.Equal(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), want) {
			t.Fatalf("/v1/sites/%s: status %d, diverges from its SiteRows entry", row.Site, w.Code)
		}
	}
}

// TestServedListingConcurrentReaders: /v1/sites and /v1/results share
// one row encoder, and a reader of each, blocking on every index of a
// served crawl at once, gets bodies equal to the snapshot's SiteRows and
// StableJSON.
func TestServedListingConcurrentReaders(t *testing.T) {
	p := New(WithSites(80), WithWorkers(4), WithSnapshotEvery(8),
		WithProgressStats(func(ProgressStats) { time.Sleep(200 * time.Microsecond) }))
	srv, store := p.NewServer(), p.ResultStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	read := func(path string, want func(*Results) ([]byte, error), compared chan<- int) {
		n := 0
		defer func() { compared <- n }()
		var idx uint64
		for ctx.Err() == nil {
			w := httptest.NewRecorder()
			url := path + "?index=" + strconv.FormatUint(idx, 10) + "&wait=10s"
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
			got, err := strconv.ParseUint(w.Header().Get("X-Result-Index"), 10, 64)
			if err != nil || w.Code != http.StatusOK {
				t.Errorf("%s: status %d, index %q", path, w.Code, w.Header().Get("X-Result-Index"))
				return
			}
			if got <= idx {
				continue
			}
			idx = got
			snap := store.Latest()
			if snap.Index != got {
				continue // a publish already replaced the index read
			}
			b, err := want(snap.Results)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(w.Body.Bytes(), b) {
				t.Errorf("index %d: %s diverges (%d vs %d bytes)", got, path, w.Body.Len(), len(b))
				return
			}
			n++
			if snap.Progress.Final {
				return
			}
		}
	}
	sites, results := make(chan int, 1), make(chan int, 1)
	go read("/v1/sites", func(r *Results) ([]byte, error) { return json.Marshal(r.SiteRows()) }, sites)
	go read("/v1/results", (*Results).StableJSON, results)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	ns, nr := <-sites, <-results
	if t.Failed() {
		return
	}
	if ns < 2 || nr < 2 {
		t.Fatalf("compared /v1/sites at %d and /v1/results at %d indexes; want mid-crawl snapshots and the final one", ns, nr)
	}
	t.Logf("compared /v1/sites at %d and /v1/results at %d of %d indexes", ns, nr, store.Index())
}

// TestSitesListingRepublishAllocs bounds the cost of a publish that
// changed nothing: building /v1/sites for the same Results at a new
// index reuses every row, allocating under 10% of the body's bytes.
func TestSitesListingRepublishAllocs(t *testing.T) {
	p, _ := serveTestPipeline(t)
	srv, store := p.NewServer(), p.ResultStore()
	req := httptest.NewRequest(http.MethodGet, "/v1/sites", nil)
	w := &nopResponseWriter{h: make(http.Header)}
	srv.ServeHTTP(w, req) // encodes every row
	body := w.n

	snap := store.Latest()
	store.Publish(snap.Progress, snap.Results)
	w.reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.n != body {
		t.Fatalf("republished listing wrote %d bytes, first wrote %d", w.n, body)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc*10 >= uint64(body) {
		t.Fatalf("republished listing allocated %d bytes for a %d-byte body; want < 10%%", alloc, body)
	}
	t.Logf("republished listing: %d bytes allocated for a %d-byte body", alloc, body)
}

// TestServedProgressMonotonic: across the indexes a reader sees, Done
// never decreases and never exceeds the snapshot's SitesTotal (every
// visit a publish counts has been observed).
func TestServedProgressMonotonic(t *testing.T) {
	p := New(WithSites(60), WithWorkers(4), WithSnapshotEvery(1))
	store := p.ResultStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := make(chan int, 1)
	go func() {
		n, idx, last := 0, uint64(0), 0
		defer func() { seen <- n }()
		for ctx.Err() == nil {
			snap := store.Wait(ctx, idx, 10*time.Second)
			if snap.Index <= idx {
				continue
			}
			idx = snap.Index
			n++
			pr := snap.Progress
			if pr.Done < last {
				t.Errorf("index %d: Done %d after %d", snap.Index, pr.Done, last)
				return
			}
			if pr.Done > snap.Results.Summary.SitesTotal {
				t.Errorf("index %d: Done %d above the snapshot's %d visits", snap.Index, pr.Done, snap.Results.Summary.SitesTotal)
				return
			}
			last = pr.Done
			if pr.Final {
				return
			}
		}
	}()
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if n := <-seen; n < 2 && !t.Failed() {
		t.Fatalf("reader saw %d snapshots", n)
	}
}
