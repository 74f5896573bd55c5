package netsim

import (
	"net/http"
	"net/url"
	"reflect"
	"testing"
)

// TestPooledReplayAndRelease: route responses cycle through the
// response pool; repeated fetch/release rounds must keep returning the
// exact registered exchange (status, headers, body).
func TestPooledReplayAndRelease(t *testing.T) {
	in := New()
	in.Register("a.example", &Routes{Paths: map[string]Route{"/x": {
		Status:      http.StatusOK,
		ContentType: []string{"text/plain"},
		SetCookie:   []string{"sid=1; Path=/"},
		Body:        "hello body",
	}}})
	in.Freeze()
	client := in.Client()

	for i := 0; i < 20; i++ {
		resp, err := client.Get("https://a.example/x")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.Status != "200 OK" {
			t.Fatalf("round %d: status %q", i, resp.Status)
		}
		if got := resp.Header.Get("Content-Type"); got != "text/plain" {
			t.Fatalf("round %d: content-type %q", i, got)
		}
		if got := resp.Header.Values("Set-Cookie"); len(got) != 1 || got[0] != "sid=1; Path=/" {
			t.Fatalf("round %d: set-cookie %v", i, got)
		}
		if Latency(resp) <= 0 {
			t.Fatalf("round %d: missing latency header", i)
		}
		body, err := ReadBody(resp)
		if err != nil || body != "hello body" {
			t.Fatalf("round %d: body %q err %v", i, body, err)
		}
		ReleaseResponse(resp)
	}
}

// TestReleaseResponseIgnoresForeign: releasing handler-path and
// foreign responses must be a safe no-op.
func TestReleaseResponseIgnoresForeign(t *testing.T) {
	ReleaseResponse(nil)
	ReleaseResponse(&http.Response{})
	in := New()
	in.RegisterFunc("b.example", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("x"))
	})
	in.Freeze()
	resp, err := in.Client().Get("https://b.example/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadBody(resp)
	if err != nil || body != "x" {
		t.Fatalf("body %q err %v", body, err)
	}
	ReleaseResponse(resp) // non-pooled stringBody: ignored
}

// TestCacheMissLeavesCallerRequestUnchanged: the handler runs on a
// shallow copy of the request, which shares URL and Header with the
// caller's. Setting the copy's Host (the cloaked alias) and Body must
// not reach the caller's request, whose fields the browser reuses
// across fetches.
func TestCacheMissLeavesCallerRequestUnchanged(t *testing.T) {
	in := New()
	var seenHost string
	var seenBody bool
	in.RegisterFunc("d.example", func(w http.ResponseWriter, r *http.Request) {
		seenHost, seenBody = r.Host, r.Body != nil
		w.Write([]byte("d"))
	})
	in.AddCNAME("alias.example", "d.example")
	in.Freeze()

	u, err := url.Parse("https://alias.example/x?q=1")
	if err != nil {
		t.Fatal(err)
	}
	req := &http.Request{
		Method: http.MethodGet,
		URL:    u,
		Header: http.Header{"Cookie": {"a=1"}},
	}
	wantURL := *u
	wantHeader := req.Header.Clone()
	resp, err := in.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if body, err := ReadBody(resp); err != nil || body != "d" {
		t.Fatalf("body %q err %v", body, err)
	}
	if seenHost != "alias.example" || !seenBody {
		t.Fatalf("handler saw Host %q, body set %v; want the alias and a body", seenHost, seenBody)
	}
	if req.Host != "" {
		t.Errorf("caller's Host = %q, want it untouched", req.Host)
	}
	if req.Body != nil {
		t.Error("caller's Body was set")
	}
	if req.URL != u || *req.URL != wantURL {
		t.Errorf("caller's URL = %v, want %v", req.URL, &wantURL)
	}
	if !reflect.DeepEqual(req.Header, wantHeader) {
		t.Errorf("caller's Header = %v, want %v", req.Header, wantHeader)
	}
}
