package netsim

import (
	"io"
	"net/http"
	"reflect"
	"testing"
)

// delivery is a copy of everything a consumer reads from a response,
// taken before the response goes back to the pool.
type delivery struct {
	status int
	header http.Header
	body   string
}

func fetchDelivery(t *testing.T, f Fetcher, rawURL string) delivery {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.Fetch(req, Stamp{Attempt: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	d := delivery{status: resp.StatusCode, header: resp.Header.Clone(), body: body}
	ReleaseResponse(resp)
	return d
}

// poolNet serves a cacheable 200 with Set-Cookie on first.example, a
// 200 with other headers on second.example and a 204 sink on
// sink.example, behind a response cache.
func poolNet() *Internet {
	in := New()
	in.RegisterFunc("first.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Set-Cookie", "sid=1; Path=/")
		w.Header().Add("Set-Cookie", "pref=dark; Path=/")
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<p>first</p>")
	})
	in.RegisterFunc("second.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		w.Header().Set("X-Other", "2")
		w.Header().Add("Set-Cookie", "other=2")
		io.WriteString(w, "let second = 2;")
	})
	in.RegisterFunc("sink.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Sink", "1")
		w.WriteHeader(http.StatusNoContent)
	})
	in.SetResponseCache(newMapCache())
	in.Freeze()
	return in
}

// TestPooledMissThenHitKeepsFirstDelivery: the miss path recycles its
// recorder and delivers from the response pool. A released 200 miss,
// then misses on other handlers writing other headers, must leave the
// cached entry exactly as first delivered: a hit returns the same
// status, headers, body and body hash.
func TestPooledMissThenHitKeepsFirstDelivery(t *testing.T) {
	in := poolNet()
	first := fetchDelivery(t, in, "https://first.example/")
	if first.header.Get(BodyHashHeader) == "" || len(first.header.Values("Set-Cookie")) != 2 {
		t.Fatalf("first delivery = %+v, want two cookies and a body hash", first)
	}
	for i := 0; i < 3; i++ {
		second := fetchDelivery(t, in, "https://second.example/")
		if second.header.Get("X-Other") != "2" || second.header.Get("Set-Cookie") != "other=2" || second.body != "let second = 2;" {
			t.Fatalf("round %d: second delivery = %+v", i, second)
		}
		sink := fetchDelivery(t, in, "https://sink.example/c?n=1")
		if sink.status != http.StatusNoContent || sink.header.Get("X-Sink") != "1" || len(sink.header) != 2 {
			t.Fatalf("round %d: sink delivery = %+v, want 204 with X-Sink and the latency header", i, sink)
		}
	}
	hit := fetchDelivery(t, in, "https://first.example/")
	if !reflect.DeepEqual(hit, first) {
		t.Fatalf("hit after pooled misses = %+v, want the first delivery %+v", hit, first)
	}
	if got := in.Requests(); got != 8 {
		t.Fatalf("Requests = %d, want 8", got)
	}
}

// TestFetchAllocs pins the allocation cost of the fabric's hot paths,
// measured through Fetch and ReleaseResponse: a cache hit and a 204
// beacon-sink miss allocate nothing, and a 404 miss allocates only its
// body string.
func TestFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects on purpose under the race detector")
	}
	plain := []string{"text/plain; charset=utf-8"}
	nosniff := []string{"nosniff"}
	in := New()
	in.RegisterFunc("www.site.example", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			h := w.Header()
			h["Content-Type"] = plain
			h["X-Content-Type-Options"] = nosniff
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, "404 page not found\n")
			return
		}
		io.WriteString(w, "<html>cached</html>")
	})
	in.RegisterFunc("sink.example", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	in.SetResponseCache(newMapCache())
	in.Freeze()

	for _, c := range []struct {
		name, url string
		max       float64
	}{
		{"cache hit", "https://www.site.example/", 0},
		{"204 sink miss", "https://sink.example/c?id=42&u=https%3A%2F%2Fwww.site.example%2F", 0},
		{"404 miss", "https://www.site.example/missing.js", 1},
	} {
		req, err := http.NewRequest(http.MethodGet, c.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		fetch := func() {
			resp, err := in.Fetch(req, Stamp{Attempt: 1, VClockMs: 1700000000000})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadBody(resp); err != nil {
				t.Fatal(err)
			}
			ReleaseResponse(resp)
		}
		fetch() // fills the cache and the pools
		n := testing.AllocsPerRun(200, fetch)
		t.Logf("%s: %v allocs per fetch", c.name, n)
		if n > c.max {
			t.Errorf("%s: %v allocs per fetch, want at most %v", c.name, n, c.max)
		}
	}
}
