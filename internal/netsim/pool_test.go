package netsim

import (
	"net/http"
	"net/url"
	"reflect"
	"testing"
)

// TestPooledReplayAndRelease: cache-hit responses cycle through the
// response pool; repeated fetch/release rounds must keep returning the
// exact cached exchange (status, headers, body, body hash).
func TestPooledReplayAndRelease(t *testing.T) {
	in := New()
	in.RegisterFunc("a.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("Set-Cookie", "sid=1; Path=/")
		w.Write([]byte("hello body"))
	})
	in.SetResponseCache(newMapCache())
	in.Freeze()
	client := in.Client()

	var hash string
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
		h := resp.Header.Get(BodyHashHeader)
		if i == 1 {
			hash = h // first round is the miss (no hash check before fill)
		} else if i > 1 && h != hash {
			t.Fatalf("round %d: body hash drifted %q != %q", i, h, hash)
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

// TestTapsDisablePooledReplay: a registered tap may retain the exchange,
// so cache hits must not hand out pooled responses then.
func TestTapsDisablePooledReplay(t *testing.T) {
	in := New()
	in.RegisterFunc("c.example", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("tapped"))
	})
	in.SetResponseCache(newMapCache())
	var retained []*http.Response
	in.Tap(func(ex Exchange) { retained = append(retained, ex.Response) })
	in.Freeze()
	client := in.Client()
	for i := 0; i < 3; i++ {
		resp, err := client.Get("https://c.example/")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBody(resp); err != nil {
			t.Fatal(err)
		}
		ReleaseResponse(resp)
	}
	// Every retained response must still carry its own intact status.
	for i, r := range retained {
		if r.StatusCode != 200 {
			t.Fatalf("retained response %d corrupted: %d", i, r.StatusCode)
		}
	}
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
	in.SetResponseCache(newMapCache())
	in.Freeze()

	u, err := url.Parse("https://alias.example/x?q=1")
	if err != nil {
		t.Fatal(err)
	}
	req := &http.Request{
		Method: http.MethodGet,
		URL:    u,
		Header: http.Header{"Cookie": {"a=1"}, AttemptHeader: {"1"}},
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
