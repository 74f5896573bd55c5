package netsim

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
)

// faultTestNet builds a one-host fabric serving a fixed body.
func faultTestNet(t *testing.T) *Internet {
	t.Helper()
	in := New()
	in.RegisterFunc("srv.example", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "0123456789abcdef0123456789abcdef")
	})
	return in
}

func get(t *testing.T, in *Internet, url string, attempt int, vms int64) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in.Fetch(req, Stamp{Attempt: attempt, VClockMs: vms})
}

// TestSeededFaultsZeroConfigIsNil: a zero-rate config produces a nil
// model, so installing it is byte-equivalent to no fault layer at all.
func TestSeededFaultsZeroConfigIsNil(t *testing.T) {
	if m := SeededFaults(FaultConfig{Seed: 42}); m != nil {
		t.Fatal("zero-rate config built a non-nil model")
	}
	if UniformFaults(0, 1).Enabled() {
		t.Fatal("UniformFaults(0) reports Enabled")
	}
}

// TestFaultDecisionsDeterministic: the same (seed, request, attempt)
// always draws the same fault, and different attempts draw independently.
func TestFaultDecisionsDeterministic(t *testing.T) {
	model := SeededFaults(UniformFaults(0.5, 7))
	req, _ := http.NewRequest(http.MethodGet, "https://srv.example/a/b?q=1", nil)
	first := model(req, Stamp{Attempt: 1})
	for i := 0; i < 10; i++ {
		if got := model(req, Stamp{Attempt: 1}); got != first {
			t.Fatalf("decision changed across calls: %+v vs %+v", got, first)
		}
	}
	// Across many paths and attempts, at least one fault kind must vary —
	// a constant model would make retries pointless.
	kinds := map[FaultKind]bool{}
	for p := 0; p < 50; p++ {
		for a := 1; a <= 3; a++ {
			r, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("https://srv.example/p%d", p), nil)
			kinds[model(r, Stamp{Attempt: a}).Kind] = true
		}
	}
	if len(kinds) < 3 {
		t.Fatalf("fault mix degenerate: only kinds %v seen", kinds)
	}
}

// TestFaultInjectionKinds drives each injected kind end-to-end through
// Fetch using a handcrafted model.
func TestFaultInjectionKinds(t *testing.T) {
	in := faultTestNet(t)
	var decide FaultDecision
	in.SetFaultModel(func(*http.Request, Stamp) FaultDecision { return decide })

	// Server error: synthesized 5xx, handler untouched.
	decide = FaultDecision{Kind: FaultServerError}
	resp, err := get(t, in, "https://srv.example/x", 1, 0)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("server-error fault: resp=%v err=%v", resp, err)
	}

	// Connection reset and timeout: typed errors carrying latency.
	for _, kind := range []FaultKind{FaultConnReset, FaultTimeout} {
		decide = FaultDecision{Kind: kind, LatencyMs: 123}
		_, err = get(t, in, "https://srv.example/x", 1, 0)
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != kind || fe.LatencyMs != 123 {
			t.Fatalf("%v fault: err=%v", kind, err)
		}
	}

	// Truncation: partial body, read error at the cut.
	decide = FaultDecision{Kind: FaultTruncate, KeepFrac: 0.5}
	resp, err = get(t, in, "https://srv.example/x", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, rerr := io.ReadAll(resp.Body)
	if !errors.Is(rerr, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read err = %v, want ErrUnexpectedEOF", rerr)
	}
	if len(body) != 16 {
		t.Fatalf("truncated body length = %d, want 16", len(body))
	}

	// Tail latency: response intact, charged latency multiplied.
	decide = FaultDecision{}
	resp, _ = get(t, in, "https://srv.example/x", 1, 0)
	base := Latency(resp)
	decide = FaultDecision{Kind: FaultTailLatency, Factor: 10}
	resp, _ = get(t, in, "https://srv.example/x", 1, 0)
	if got := Latency(resp); got != 10*base {
		t.Fatalf("tail latency = %v, want %v", got, 10*base)
	}
	if n := in.Faults(); n != 5 {
		t.Fatalf("fault counter = %d, want 5", n)
	}

	// Unregistered hosts stay NXDOMAIN regardless of the model.
	decide = FaultDecision{Kind: FaultServerError}
	_, err = get(t, in, "https://missing.example/", 1, 0)
	var nf *HostNotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("missing host err = %v, want HostNotFoundError", err)
	}
}

// TestFlapScheduleVirtualClock: a 100%-flap config makes the host fail
// during the down-window and succeed outside it, as a pure function of
// the virtual time carried on the request.
func TestFlapScheduleVirtualClock(t *testing.T) {
	in := faultTestNet(t)
	cfg := FaultConfig{Seed: 3, PHostFlap: 1, FlapPeriodMs: 1000, FlapDownFrac: 0.5}
	in.SetFaultModel(SeededFaults(cfg))

	// Scan one full period: both outcomes must occur, each in one
	// contiguous window, and identically on a second scan.
	outcomes := make([]bool, 0, 20)
	for vms := int64(0); vms < 1000; vms += 50 {
		_, err := get(t, in, "https://srv.example/x", 1, vms+1)
		outcomes = append(outcomes, err == nil)
	}
	up, down := 0, 0
	for i, ok := range outcomes {
		if ok {
			up++
		} else {
			down++
		}
		_, err := get(t, in, "https://srv.example/x", 1, int64(i*50)+1)
		if (err == nil) != ok {
			t.Fatalf("flap outcome at %dms not reproducible", i*50)
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("flap schedule degenerate: up=%d down=%d", up, down)
	}
}

// TestTruncationCacheEquivalence: a route table holds each body once, in
// place, so a truncated delivery must neither differ from a handler's
// truncation of the same bytes nor reach the table: writing into the
// truncated response's header values changes no route, and the next
// clean fetch gets the whole body and the route's own header slices.
func TestTruncationCacheEquivalence(t *testing.T) {
	const body = "0123456789abcdef0123456789abcdef"
	routes := &Routes{Paths: map[string]Route{"/x": {
		Status:      http.StatusOK,
		ContentType: []string{"text/html"},
		SetCookie:   []string{"sid=1; Path=/", "pref=dark"},
		Body:        body,
	}}}
	truncateFirst := func(_ *http.Request, s Stamp) FaultDecision {
		if s.attempt() == 1 {
			return FaultDecision{Kind: FaultTruncate, KeepFrac: 0.25}
		}
		return FaultDecision{}
	}
	table := New()
	table.Register("srv.example", routes)
	table.SetFaultModel(truncateFirst)
	handler := New()
	handler.RegisterFunc("srv.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Set-Cookie"] = []string{"sid=1; Path=/", "pref=dark"}
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, body)
	})
	handler.SetFaultModel(truncateFirst)

	read := func(in *Internet, attempt int) (*http.Response, string, error) {
		resp, err := get(t, in, "https://srv.example/x", attempt, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		return resp, string(b), err
	}
	tResp, tBody, tErr := read(table, 1)
	hResp, hBody, hErr := read(handler, 1)
	if tBody != hBody || len(tBody) != 8 || !errors.Is(tErr, io.ErrUnexpectedEOF) || !errors.Is(hErr, io.ErrUnexpectedEOF) {
		t.Fatalf("route truncation %q/%v != handler truncation %q/%v", tBody, tErr, hBody, hErr)
	}
	if !reflect.DeepEqual(tResp.Header, hResp.Header) {
		t.Fatalf("route truncation header %v != handler truncation header %v", tResp.Header, hResp.Header)
	}

	// A consumer may write into a truncated delivery's header.
	tResp.Header["Set-Cookie"][0] = "tampered"
	tResp.Header["Content-Type"][0] = "tampered"
	tResp.Header["Set-Cookie"] = append(tResp.Header["Set-Cookie"], "extra")

	r := routes.Paths["/x"]
	if r.SetCookie[0] != "sid=1; Path=/" || r.SetCookie[1] != "pref=dark" || r.ContentType[0] != "text/html" {
		t.Fatalf("truncated delivery reached the route: %+v", r)
	}
	resp, got, err := read(table, 2)
	if err != nil || got != body {
		t.Fatalf("clean fetch after truncation: body=%q err=%v", got, err)
	}
	if sc := resp.Header.Values("Set-Cookie"); !reflect.DeepEqual(sc, []string{"sid=1; Path=/", "pref=dark"}) || resp.Header.Get("Content-Type") != "text/html" {
		t.Fatalf("clean fetch after truncation: header %v", resp.Header)
	}
	if &resp.Header["Set-Cookie"][0] != &r.SetCookie[0] || &resp.Header["Content-Type"][0] != &r.ContentType[0] {
		t.Fatal("clean delivery does not share the route's header slices")
	}
	ReleaseResponse(resp)
}

// TestSeededFaultsPinned pins SeededFaults' decisions for a fixed config:
// the table was recorded when the model still read its stamp from
// request headers and hashed a concatenated key, so it holds the
// decisions every recorded crawl under faults was made with.
func TestSeededFaultsPinned(t *testing.T) {
	cfg := FaultConfig{Seed: 11, PServerError: 0.2, PConnReset: 0.15, PTimeout: 0.1, PTruncate: 0.1,
		PTailLatency: 0.1, PHostFlap: 0.5, FlapPeriodMs: 30000, FlapDownFrac: 0.25}
	model := SeededFaults(cfg)
	decision := map[FaultKind]FaultDecision{
		FaultNone:        {},
		FaultServerError: {Kind: FaultServerError, Status: http.StatusServiceUnavailable},
		FaultConnReset:   {Kind: FaultConnReset},
		FaultTimeout:     {Kind: FaultTimeout, LatencyMs: 1000},
		FaultTruncate:    {Kind: FaultTruncate, KeepFrac: 0.5},
		FaultTailLatency: {Kind: FaultTailLatency, Factor: 10},
	}
	for _, c := range []struct {
		url      string
		attempt  int
		vclockMs int64
		want     FaultKind
	}{
		{"https://www.site00001.com/", 0, 0, FaultServerError},
		{"https://www.site00001.com/", 1, 9000, FaultServerError},
		{"https://www.site00001.com/", 2, 21000, FaultTailLatency},
		{"https://www.site00001.com/", 3, 1700000000123, FaultNone},
		{"https://www.site00001.com/", 7, 4500, FaultTailLatency},
		{"https://www.site00001.com/assets/app.js", 0, 0, FaultServerError},
		{"https://www.site00001.com/assets/app.js", 1, 9000, FaultServerError},
		{"https://www.site00001.com/assets/app.js", 2, 21000, FaultTimeout},
		{"https://www.site00001.com/assets/app.js", 3, 1700000000123, FaultNone},
		{"https://www.site00001.com/assets/app.js", 7, 4500, FaultTruncate},
		{"https://cdn.tracker.example/lib/app.js?v=3", 0, 0, FaultTimeout},
		{"https://cdn.tracker.example/lib/app.js?v=3", 1, 9000, FaultTruncate},
		{"https://cdn.tracker.example/lib/app.js?v=3", 2, 21000, FaultServerError},
		{"https://cdn.tracker.example/lib/app.js?v=3", 3, 1700000000123, FaultTailLatency},
		{"https://cdn.tracker.example/lib/app.js?v=3", 7, 4500, FaultNone},
		{"https://Beacon.Sink.example/c?a=1&b=2", 0, 0, FaultNone},
		{"https://Beacon.Sink.example/c?a=1&b=2", 1, 9000, FaultNone},
		{"https://Beacon.Sink.example/c?a=1&b=2", 2, 21000, FaultConnReset},
		{"https://Beacon.Sink.example/c?a=1&b=2", 3, 1700000000123, FaultNone},
		{"https://Beacon.Sink.example/c?a=1&b=2", 7, 4500, FaultConnReset},
		{"http://metrics.site00002.de:8080/t.js", 0, 0, FaultServerError},
		{"http://metrics.site00002.de:8080/t.js", 1, 9000, FaultTimeout},
		{"http://metrics.site00002.de:8080/t.js", 2, 21000, FaultNone},
		{"http://metrics.site00002.de:8080/t.js", 3, 1700000000123, FaultTimeout},
		{"http://metrics.site00002.de:8080/t.js", 7, 4500, FaultConnReset},
		{"https://h.example?", 0, 0, FaultNone},
		{"https://h.example?", 1, 9000, FaultNone},
		{"https://h.example?", 2, 21000, FaultServerError},
		{"https://h.example?", 3, 1700000000123, FaultServerError},
		{"https://h.example?", 7, 4500, FaultTailLatency},
		{"https://h.example/a;b,c?x", 0, 0, FaultNone},
		{"https://h.example/a;b,c?x", 1, 9000, FaultNone},
		{"https://h.example/a;b,c?x", 2, 21000, FaultTailLatency},
		{"https://h.example/a;b,c?x", 3, 1700000000123, FaultServerError},
		{"https://h.example/a;b,c?x", 7, 4500, FaultTailLatency},
	} {
		req, err := http.NewRequest(http.MethodGet, c.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := model(req, Stamp{Attempt: c.attempt, VClockMs: c.vclockMs}); got != decision[c.want] {
			t.Errorf("%s attempt %d at %d ms: %+v, want %+v", c.url, c.attempt, c.vclockMs, got, decision[c.want])
		}
	}
}
