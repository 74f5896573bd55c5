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

// poolNet serves a route with Set-Cookie on first.example, a handler's
// 200 with other headers on second.example and a handler's 204 on
// sink.example.
func poolNet() *Internet {
	in := New()
	in.Register("first.example", &Routes{Paths: map[string]Route{"/": {
		Status:      http.StatusOK,
		ContentType: []string{"text/html"},
		SetCookie:   []string{"sid=1; Path=/", "pref=dark; Path=/"},
		Body:        "<p>first</p>",
	}}})
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
	in.Freeze()
	return in
}

// TestPooledMissThenHitKeepsFirstDelivery: a handler (a host without a
// route table) runs against a recycled recorder and delivers from the
// response pool, as a route does. A released route delivery, then
// handler deliveries writing other headers into recycled responses, must
// leave the route's next delivery exactly as first delivered.
func TestPooledMissThenHitKeepsFirstDelivery(t *testing.T) {
	in := poolNet()
	first := fetchDelivery(t, in, "https://first.example/")
	if first.header.Get("Content-Type") != "text/html" || len(first.header.Values("Set-Cookie")) != 2 {
		t.Fatalf("first delivery = %+v, want two cookies and a content type", first)
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
	again := fetchDelivery(t, in, "https://first.example/")
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("route delivery after pooled handler deliveries = %+v, want the first delivery %+v", again, first)
	}
	if got := in.Requests(); got != 8 {
		t.Fatalf("Requests = %d, want 8", got)
	}
}

// TestFetchAllocs pins the allocation cost of the fabric's paths,
// measured through Fetch, ReadBody and ReleaseResponse: every route of a
// table (a page, a 500 route, the 404 fallback and a beacon sink's 204)
// allocates nothing, and a handler allocates only its body string.
func TestFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects on purpose under the race detector")
	}
	in := New()
	in.Register("www.site.example", &Routes{
		Paths: map[string]Route{
			"/":       {Status: http.StatusOK, ContentType: []string{"text/html"}, SetCookie: []string{"sid=1"}, Body: "<html>page</html>"},
			"/broken": {Status: http.StatusInternalServerError},
		},
		Fallback: Route{Status: http.StatusNotFound, Body: "404 page not found\n"},
	})
	in.Register("sink.example", &Routes{Fallback: Route{Status: http.StatusNoContent}})
	in.RegisterFunc("handler.example", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<html>handler</html>")
	})
	in.Freeze()

	for _, c := range []struct {
		name, url string
		max       float64
	}{
		{"200 route", "https://www.site.example/", 0},
		{"500 route", "https://www.site.example/broken", 0},
		{"404 fallback", "https://www.site.example/missing.js", 0},
		{"204 sink", "https://sink.example/c?id=42&u=https%3A%2F%2Fwww.site.example%2F", 0},
		{"handler", "https://handler.example/", 1},
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
		fetch() // fills the memos and the pools
		n := testing.AllocsPerRun(200, fetch)
		t.Logf("%s: %v allocs per fetch", c.name, n)
		if n > c.max {
			t.Errorf("%s: %v allocs per fetch, want at most %v", c.name, n, c.max)
		}
	}
}
