package netsim

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// routeNet serves the route shapes a generated web registers: a page
// with Set-Cookie, an incomplete site's 500, the 404 fallback of sites
// and services, and a beacon sink's 204 on any path.
func routeNet() *Internet {
	in := New()
	in.Register("www.gen.example", &Routes{
		Paths: map[string]Route{
			"/": {
				Status:      http.StatusOK,
				ContentType: []string{"text/html"},
				SetCookie:   []string{"a=1; Path=/", "b=2; HttpOnly"},
				Body:        "<p>hi</p>",
			},
			"/broken": {Status: http.StatusInternalServerError},
		},
		Fallback: Route{Status: http.StatusNotFound, Body: "404 page not found\n"},
	})
	in.Register("sink.example", &Routes{Fallback: Route{Status: http.StatusNoContent}})
	in.Freeze()
	return in
}

// TestRouteTableResponses: each route answers, through Fetch and through
// ServeHTTP (cmd/webserve's path), with the status, headers and body the
// generated web's handler closures wrote, given here as literals (the
// error routes are http.Error's and http.NotFound's responses).
func TestRouteTableResponses(t *testing.T) {
	in := routeNet()
	for _, c := range []struct {
		url    string
		status int
		header http.Header
		body   string
	}{
		{"https://www.gen.example/", 200, http.Header{
			"Set-Cookie":   {"a=1; Path=/", "b=2; HttpOnly"},
			"Content-Type": {"text/html"},
		}, "<p>hi</p>"},
		{"https://www.gen.example/missing.js?x=1", 404, http.Header{
			"Content-Type":           {"text/plain; charset=utf-8"},
			"X-Content-Type-Options": {"nosniff"},
		}, "404 page not found\n"},
		{"https://www.gen.example/broken", 500, http.Header{
			"Content-Type":           {"text/plain; charset=utf-8"},
			"X-Content-Type-Options": {"nosniff"},
		}, "Internal Server Error\n"},
		{"https://sink.example/c?id=42", 204, http.Header{}, ""},
	} {
		d := fetchDelivery(t, in, c.url)
		if Latency(&http.Response{Header: d.header}) <= 0 {
			t.Errorf("Fetch %s: no latency header", c.url)
		}
		d.header.Del(LatencyHeader)
		if d.status != c.status || !reflect.DeepEqual(d.header, c.header) || d.body != c.body {
			t.Errorf("Fetch %s = %d %v %q, want %d %v %q", c.url, d.status, d.header, d.body, c.status, c.header, c.body)
		}

		rec := httptest.NewRecorder()
		in.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.url, nil))
		res := rec.Result()
		if res.StatusCode != c.status || !reflect.DeepEqual(res.Header, c.header) || rec.Body.String() != c.body {
			t.Errorf("ServeHTTP %s = %d %v %q, want %d %v %q", c.url, res.StatusCode, res.Header, rec.Body.String(), c.status, c.header, c.body)
		}
	}
}

// TestRouteBodyServedInPlace: the body a route delivers is the
// registered string itself, not a copy of its bytes.
func TestRouteBodyServedInPlace(t *testing.T) {
	body := strings.Repeat("<p>page</p>", 8)
	in := New()
	in.Register("www.gen.example", &Routes{Paths: map[string]Route{"/": {Status: http.StatusOK, Body: body}}})
	req, err := http.NewRequest(http.MethodGet, "https://www.gen.example/", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := in.Fetch(req, Stamp{Attempt: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadBody(resp)
		if err != nil || got != body {
			t.Fatalf("body %q err %v", got, err)
		}
		if unsafe.StringData(got) != unsafe.StringData(body) {
			t.Fatal("served body is a copy of the registered string")
		}
		ReleaseResponse(resp)
	}
}
