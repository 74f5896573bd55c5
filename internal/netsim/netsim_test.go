package netsim

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

func textHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, body)
	})
}

func TestRoundTripBasic(t *testing.T) {
	in := New()
	in.Register("example.com", textHandler("hello"))
	resp, err := in.Client().Get("https://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadBody(resp)
	if err != nil || body != "hello" {
		t.Fatalf("body = %q err = %v", body, err)
	}
	if in.Requests() != 1 {
		t.Fatalf("Requests = %d", in.Requests())
	}
}

func TestHostNotFound(t *testing.T) {
	in := New()
	_, err := in.Client().Get("https://nosuch.example/")
	if err == nil {
		t.Fatal("expected error")
	}
	var hnf *HostNotFoundError
	if !errors.As(err, &hnf) || hnf.Host != "nosuch.example" {
		t.Fatalf("err = %v", err)
	}
}

func TestNoHostError(t *testing.T) {
	in := New()
	u, err := url.Parse("/relative")
	if err != nil {
		t.Fatal(err)
	}
	req := &http.Request{URL: u}
	if _, err := in.RoundTrip(req); err == nil {
		t.Fatal("expected error for hostless request")
	}
}

func TestSetCookieFlowsBack(t *testing.T) {
	in := New()
	in.RegisterFunc("example.com", func(w http.ResponseWriter, r *http.Request) {
		http.SetCookie(w, &http.Cookie{Name: "sid", Value: "1"})
		fmt.Fprint(w, "ok")
	})
	resp, err := in.Client().Get("https://example.com/login")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Set-Cookie"); !strings.HasPrefix(got, "sid=1") {
		t.Fatalf("Set-Cookie = %q", got)
	}
}

func TestLatencyDeterministicAndPositive(t *testing.T) {
	in := New()
	in.Register("a.example", textHandler("x"))
	l1 := fetchLatency(t, in, "https://a.example/p1")
	l2 := fetchLatency(t, in, "https://a.example/p1")
	if l1 != l2 {
		t.Fatalf("latency not deterministic: %v vs %v", l1, l2)
	}
	if l1 < 8 || l1 > 70 {
		t.Fatalf("latency out of expected envelope: %v", l1)
	}
}

func fetchLatency(t *testing.T, in *Internet, url string) float64 {
	t.Helper()
	resp, err := in.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return Latency(resp)
}

func TestCNAMECloaking(t *testing.T) {
	in := New()
	var sawHost string
	in.RegisterFunc("tracker.example", func(w http.ResponseWriter, r *http.Request) {
		sawHost = r.Host
		fmt.Fprint(w, "tracker js")
	})
	in.AddCNAME("metrics.site.example", "tracker.example")

	if !in.IsCloaked("metrics.site.example") {
		t.Fatal("IsCloaked = false")
	}
	if in.IsCloaked("tracker.example") {
		t.Fatal("canonical host reported cloaked")
	}
	if got := in.CanonicalHost("metrics.site.example"); got != "tracker.example" {
		t.Fatalf("CanonicalHost = %q", got)
	}

	resp, err := in.Client().Get("https://metrics.site.example/t.js")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := ReadBody(resp)
	if body != "tracker js" {
		t.Fatalf("body = %q", body)
	}
	// The serving handler must observe the alias Host, as over real DNS.
	if sawHost != "metrics.site.example" {
		t.Fatalf("handler saw Host %q", sawHost)
	}
}

func TestCNAMEChainAndCycle(t *testing.T) {
	in := New()
	in.Register("final.example", textHandler("f"))
	in.AddCNAME("a.example", "b.example")
	in.AddCNAME("b.example", "final.example")
	if got := in.CanonicalHost("a.example"); got != "final.example" {
		t.Fatalf("chain resolution = %q", got)
	}
	in.AddCNAME("x.example", "y.example")
	in.AddCNAME("y.example", "x.example")
	// must terminate
	_ = in.CanonicalHost("x.example")
}

func TestConcurrentRoundTrips(t *testing.T) {
	in := New()
	for i := 0; i < 10; i++ {
		in.Register(fmt.Sprintf("h%d.example", i), textHandler("x"))
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := in.Client().Get(fmt.Sprintf("https://h%d.example/", i))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}(i)
		}
	}
	wg.Wait()
	if in.Requests() != 200 {
		t.Fatalf("Requests = %d, want 200", in.Requests())
	}
}

func TestServeHTTPByHostHeader(t *testing.T) {
	in := New()
	in.Register("site-a.example", textHandler("A"))
	in.Register("site-b.example", textHandler("B"))

	srv := httptest.NewServer(in)
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/", nil)
	req.Host = "site-b.example"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := ReadBody(resp)
	if body != "B" {
		t.Fatalf("body = %q, want B", body)
	}

	req2, _ := http.NewRequest("GET", srv.URL+"/", nil)
	req2.Host = "unknown.example:8080"
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
}

func BenchmarkRoundTrip(b *testing.B) {
	in := New()
	in.Register("example.com", textHandler("<html>benchmark body</html>"))
	client := in.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get("https://example.com/")
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// countingCache is a minimal ResponseCache for fabric tests.
type countingCache struct {
	mu      sync.Mutex
	entries map[ResponseKey]any
	gets    int
	hits    int
}

func newCountingCache() *countingCache {
	return &countingCache{entries: map[ResponseKey]any{}}
}

func (c *countingCache) GetResponse(key ResponseKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	v, ok := c.entries[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *countingCache) PutResponse(key ResponseKey, v any, _ int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		c.entries[key] = v
	}
}

func TestFreezeServesIdentically(t *testing.T) {
	in := New()
	in.Register("a.example", textHandler("A"))
	in.AddCNAME("alias.example", "a.example")
	in.Freeze()

	for _, host := range []string{"a.example", "alias.example"} {
		resp, err := in.Client().Get("https://" + host + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := ReadBody(resp)
		if body != "A" {
			t.Fatalf("%s: body = %q", host, body)
		}
	}
	if in.CanonicalHost("alias.example") != "a.example" {
		t.Fatal("CanonicalHost broken after Freeze")
	}
}

func TestFreezeCopyOnWriteMutation(t *testing.T) {
	in := New()
	in.Register("a.example", textHandler("A"))
	in.Freeze()

	// Registration after Freeze must still take effect (copy-on-write).
	in.Register("b.example", textHandler("B"))
	resp, err := in.Client().Get("https://b.example/")
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := ReadBody(resp); body != "B" {
		t.Fatalf("post-freeze registration not served: %q", body)
	}
	before := in.Requests()
	if _, err := in.Client().Get("https://a.example/"); err != nil {
		t.Fatal(err)
	}
	if got := in.Requests() - before; got != 1 {
		t.Fatalf("post-freeze request counted %d times, want 1", got)
	}
}

// TestFrozenConcurrentServing exercises the lock-free serving path from
// many goroutines (meaningful mainly under -race).
func TestFrozenConcurrentServing(t *testing.T) {
	in := New()
	for i := 0; i < 8; i++ {
		in.Register(fmt.Sprintf("h%d.example", i), textHandler("x"))
	}
	in.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := in.Client()
			for i := 0; i < 100; i++ {
				resp, err := client.Get(fmt.Sprintf("https://h%d.example/", (g+i)%8))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	if in.Requests() != 800 {
		t.Fatalf("Requests = %d, want 800", in.Requests())
	}
}

func TestResponseCacheReplaysExchanges(t *testing.T) {
	in := New()
	var served int
	in.RegisterFunc("a.example", func(w http.ResponseWriter, r *http.Request) {
		served++
		w.Header().Set("Set-Cookie", "sid=1; Path=/")
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "BODY")
	})
	cache := newCountingCache()
	in.SetResponseCache(cache)
	in.Freeze()

	var latencies []float64
	before := in.Requests()

	for i := 0; i < 3; i++ {
		resp, err := in.Client().Get("https://a.example/")
		if err != nil {
			t.Fatal(err)
		}
		latencies = append(latencies, Latency(resp))
		if sc := resp.Header.Get("Set-Cookie"); sc != "sid=1; Path=/" {
			t.Fatalf("request %d: Set-Cookie = %q", i, sc)
		}
		if h := resp.Header.Get(BodyHashHeader); len(h) != 32 {
			t.Fatalf("request %d: body hash header = %q", i, h)
		}
		body, _ := ReadBody(resp)
		if body != "BODY" {
			t.Fatalf("request %d: body = %q", i, body)
		}
	}
	if served != 1 {
		t.Fatalf("handler ran %d times, want 1 (cache must replay)", served)
	}
	if cache.hits != 2 {
		t.Fatalf("cache hits = %d, want 2", cache.hits)
	}
	if latencies[0] != latencies[1] || latencies[1] != latencies[2] {
		t.Fatalf("latency differs across hits: %v", latencies)
	}
	if got := in.Requests() - before; got != 3 {
		t.Fatalf("Requests rose by %d, want 3; accounting must not skip hits", got)
	}
}

func TestResponseCacheSkipsNon200(t *testing.T) {
	in := New()
	in.RegisterFunc("sink.example", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	in.RegisterFunc("err.example", func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	cache := newCountingCache()
	in.SetResponseCache(cache)

	for i := 0; i < 2; i++ {
		resp, _ := in.Client().Get(fmt.Sprintf("https://sink.example/p?beacon=%d", i))
		resp.Body.Close()
		resp, _ = in.Client().Get("https://err.example/missing")
		resp.Body.Close()
	}
	if len(cache.entries) != 0 {
		t.Fatalf("non-200 responses were cached: %d entries", len(cache.entries))
	}
}

func TestResponseCacheKeyedByQueryAndHost(t *testing.T) {
	in := New()
	in.RegisterFunc("q.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "q=%s", r.URL.RawQuery)
	})
	cache := newCountingCache()
	in.SetResponseCache(cache)

	for _, q := range []string{"a=1", "a=2", "a=1"} {
		resp, err := in.Client().Get("https://q.example/p?" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := ReadBody(resp)
		if body != "q="+q {
			t.Fatalf("query %q served %q", q, body)
		}
	}
	if len(cache.entries) != 2 {
		t.Fatalf("cache entries = %d, want 2 (distinct queries)", len(cache.entries))
	}
}
