package netsim

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
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

func get(t *testing.T, in *Internet, url string, attempt int, vms float64) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if attempt > 0 {
		req.Header.Set(AttemptHeader, strconv.Itoa(attempt))
	}
	if vms > 0 {
		req.Header.Set(VClockHeader, strconv.FormatFloat(vms, 'f', -1, 64))
	}
	return in.RoundTrip(req)
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
	req.Header.Set(AttemptHeader, "1")
	first := model(req)
	for i := 0; i < 10; i++ {
		if got := model(req); got != first {
			t.Fatalf("decision changed across calls: %+v vs %+v", got, first)
		}
	}
	// Across many paths and attempts, at least one fault kind must vary —
	// a constant model would make retries pointless.
	kinds := map[FaultKind]bool{}
	for p := 0; p < 50; p++ {
		for a := 1; a <= 3; a++ {
			r, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("https://srv.example/p%d", p), nil)
			r.Header.Set(AttemptHeader, strconv.Itoa(a))
			kinds[model(r).Kind] = true
		}
	}
	if len(kinds) < 3 {
		t.Fatalf("fault mix degenerate: only kinds %v seen", kinds)
	}
}

// TestFaultInjectionKinds drives each injected kind end-to-end through
// RoundTrip using a handcrafted model.
func TestFaultInjectionKinds(t *testing.T) {
	in := faultTestNet(t)
	var decide FaultDecision
	in.SetFaultModel(func(req *http.Request) FaultDecision { return decide })

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

	// Truncation: partial body, read error at the cut, hash stripped.
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
	if resp.Header.Get(BodyHashHeader) != "" {
		t.Fatal("truncated response kept its body-hash header")
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
	for vms := 0.0; vms < 1000; vms += 50 {
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
		_, err := get(t, in, "https://srv.example/x", 1, float64(i*50)+1)
		if (err == nil) != ok {
			t.Fatalf("flap outcome at %dms not reproducible", i*50)
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("flap schedule degenerate: up=%d down=%d", up, down)
	}
}

// TestTruncationCacheEquivalence: with a response cache installed, a
// truncated delivery must not poison the cache — the next clean request
// gets the full body, and a truncated cache-hit delivery matches the
// truncated handler delivery byte for byte.
func TestTruncationCacheEquivalence(t *testing.T) {
	read := func(in *Internet, attempt int) (string, error) {
		resp, err := get(t, in, "https://srv.example/x", attempt, 0)
		if err != nil {
			return "", err
		}
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	truncateFirst := func(req *http.Request) FaultDecision {
		if requestAttempt(req) == 1 {
			return FaultDecision{Kind: FaultTruncate, KeepFrac: 0.25}
		}
		return FaultDecision{}
	}

	cached := faultTestNet(t)
	cached.SetResponseCache(newMapCache())
	cached.SetFaultModel(truncateFirst)
	plain := faultTestNet(t)
	plain.SetFaultModel(truncateFirst)

	// Warm the cache with a clean exchange so the faulted request below
	// replays from cache on one fabric and the handler on the other.
	if body, err := read(cached, 2); err != nil || len(body) != 32 {
		t.Fatalf("warmup: body=%q err=%v", body, err)
	}
	cBody, cErr := read(cached, 1)
	pBody, pErr := read(plain, 1)
	if cBody != pBody || !errors.Is(cErr, io.ErrUnexpectedEOF) || !errors.Is(pErr, io.ErrUnexpectedEOF) {
		t.Fatalf("cached truncation %q/%v != uncached %q/%v", cBody, cErr, pBody, pErr)
	}
	// The cache still serves the intact body afterwards.
	if body, err := read(cached, 2); err != nil || len(body) != 32 {
		t.Fatalf("cache poisoned by truncation: body=%q err=%v", body, err)
	}
}

// mapCache is a minimal ResponseCache for tests.
type mapCache struct{ m map[string]any }

func newMapCache() *mapCache { return &mapCache{m: map[string]any{}} }

func (c *mapCache) GetResponse(key string) (any, bool)   { v, ok := c.m[key]; return v, ok }
func (c *mapCache) PutResponse(key string, v any, _ int) { c.m[key] = v }
