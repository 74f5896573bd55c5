package cookieguard

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"cookieguard/internal/breakage"
	"cookieguard/internal/browser"
)

// crawlRecords runs a pipeline's crawl and returns per-site JSON records.
func crawlRecords(t *testing.T, p *Pipeline) map[string]string {
	t.Helper()
	logs, err := collectStream(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(logs))
	for _, v := range logs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[v.Site] = string(b)
	}
	return out
}

func diffRecords(t *testing.T, label string, a, b map[string]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: site counts diverge: %d vs %d", label, len(a), len(b))
	}
	for site, rec := range a {
		if b[site] != rec {
			t.Errorf("%s: site %s records differ", label, site)
		}
	}
}

// TestZeroFaultConfigByteIdentical is the PR-2-style equivalence
// contract of the fault layer: a pipeline with a zero-rate WithFaults
// (and one with retries enabled but no faults to retry) emits records
// byte-identical to a pipeline that never heard of faults.
func TestZeroFaultConfigByteIdentical(t *testing.T) {
	base := []Option{WithSites(30), WithWorkers(6), WithSeed(9), WithInteract(true)}
	vanilla := crawlRecords(t, New(base...))

	zeroRate := crawlRecords(t, New(append(base[:len(base):len(base)], WithFaults(FaultConfig{Seed: 1}))...))
	diffRecords(t, "zero-rate fault config", vanilla, zeroRate)

	retriesOnly := crawlRecords(t, New(append(base[:len(base):len(base)], WithRetryPolicy(DefaultRetryPolicy()))...))
	// Retries without faults never fire on complete sites; incomplete
	// sites record the extra 5xx attempts, which is the one intended
	// difference — compare complete records only.
	for site, rec := range vanilla {
		var v VisitLog
		if err := json.Unmarshal([]byte(rec), &v); err != nil {
			t.Fatal(err)
		}
		if v.Complete() && retriesOnly[site] != rec {
			t.Errorf("retries-without-faults: complete site %s record differs", site)
		}
	}
}

// faultedRecords counts the encoded records with a request an injected
// fault touched: one that failed on a transient class (conn-reset,
// timeout, truncated) or that succeeded after a retry. A failed or
// degraded visit alone is no sign of a fault: on a clean web an
// incomplete site's 500 is retried and fails again with "http".
func faultedRecords(t *testing.T, recs map[string]string) int {
	t.Helper()
	n := 0
	for _, rec := range recs {
		var v VisitLog
		if err := json.Unmarshal([]byte(rec), &v); err != nil {
			t.Fatal(err)
		}
		for _, r := range v.Requests {
			if browser.FailureClass(r.Failure).Transient() || r.Retries > 0 && !r.Failed {
				n++
				break
			}
		}
	}
	return n
}

// TestFaultedPipelineDeterministicAndCacheInvariant: under an active
// fault schedule, records are byte-identical across repeated runs, and
// the artifact cache stays semantically invisible.
func TestFaultedPipelineDeterministicAndCacheInvariant(t *testing.T) {
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithSites(30), WithWorkers(6), WithSeed(9), WithInteract(true),
			WithFaults(UniformFaults(0.12, 77)),
			WithRetryPolicy(DefaultRetryPolicy()),
		}, extra...)
	}
	first := crawlRecords(t, New(opts()...))
	second := crawlRecords(t, New(opts()...))
	diffRecords(t, "repeated faulted runs", first, second)

	uncached := crawlRecords(t, New(opts(WithArtifactCache(false))...))
	diffRecords(t, "faulted cached vs uncached", first, uncached)

	if faultedRecords(t, first) == 0 {
		t.Fatal("12% fault schedule left no trace; test is vacuous")
	}
}

// TestFaultedRunProducesFailureTable: the full streaming Run under
// faults surfaces the taxonomy in Results.Failures.
func TestFaultedRunProducesFailureTable(t *testing.T) {
	p := New(
		WithSites(40), WithWorkers(8), WithSeed(3), WithInteract(true),
		WithFaults(UniformFaults(0.15, 5)),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
	)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f := res.Failures
	if f.VisitsFailed+f.VisitsDegraded == 0 || f.RequestsFailed == 0 {
		t.Fatalf("faulted run rolled up no failures: %+v", f)
	}
	if p.Net.Faults() == 0 {
		t.Fatal("the fabric injected no fault")
	}
	if f.Retries == 0 {
		t.Fatalf("retry policy active under faults but no retries recorded: %+v", f)
	}
	if len(res.FailureTable()) == 0 {
		t.Fatal("failure table empty despite failures")
	}
	// Failed visits must still be excluded from the measurement.
	if res.Summary.SitesComplete >= res.Summary.SitesTotal {
		t.Fatalf("faulted run lost no sites: complete=%d total=%d",
			res.Summary.SitesComplete, res.Summary.SitesTotal)
	}
}

// TestFaultsLeaveEvaluationsClean: WithFaults shapes the crawl only, so
// the §7 guard evaluations — Table 3 breakage under every condition and
// the paired timing measurement — equal the fault-free pipeline's.
func TestFaultsLeaveEvaluationsClean(t *testing.T) {
	base := []Option{WithSites(150), WithSeed(7), WithWorkers(2)}
	clean := New(base...)
	faulted := New(append(base[:len(base):len(base)], WithFaults(UniformFaults(0.1, 7)))...)
	for _, cond := range []breakage.Condition{breakage.NoGuard, breakage.GuardStrict, breakage.GuardWhitelist} {
		want, err := clean.EvaluateBreakage(20, cond)
		if err != nil {
			t.Fatal(err)
		}
		got, err := faulted.EvaluateBreakage(20, cond)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v breakage under faults differs:\n got %+v\nwant %+v", cond, got, want)
		}
	}
	want, err := clean.EvaluatePerformance(40)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulted.EvaluatePerformance(40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("performance under faults differs: %d pairs, want %d", len(got.Samples), len(want.Samples))
	}
}

// TestFaultsFillVantagesWithoutSchedule: WithFaults is the schedule of
// every vantage that has none of its own, and leaves a vantage's own
// schedule alone, so it crawls exactly as the vantages carrying it.
func TestFaultsFillVantagesWithoutSchedule(t *testing.T) {
	rp := DefaultRetryPolicy()
	rp.MaxAttempts = 2
	cfg := UniformFaults(0.1, 7)
	base := []Option{WithSites(30), WithWorkers(4), WithSeed(7), WithInteract(true), WithRetryPolicy(rp)}
	with := func(extra ...Option) []Option { return append(base[:len(base):len(base)], extra...) }
	own := RegionVantage("eu-west", 0.2, 7)

	filled := crawlDigest(t, with(WithFaults(cfg), WithVantages(own, Vantage{Name: "us-east"}))...)
	explicit := crawlDigest(t, with(WithVantages(own, Vantage{Name: "us-east", Faults: cfg}))...)
	if filled != explicit {
		t.Errorf("WithFaults on a vantage without faults crawls differently from the vantage carrying them:\n got %s\nwant %s", filled, explicit)
	}
	if unfaulted := crawlDigest(t, with(WithVantages(own, Vantage{Name: "us-east"}))...); unfaulted == filled {
		t.Error("WithFaults left the vantage without faults unchanged; test is vacuous")
	}
}

// defaultVantageGoldenFaulted pins the bytes of a faulted crawl with no
// vantages configured, where WithFaults is the implicit default
// vantage's schedule. It was recorded while the schedule was still
// installed on the fabric.
const defaultVantageGoldenFaulted = "e056dd434df69d0cffc86cf7ce4e4e2326667123bdfc449fd5e8bf12c74d6a2e"

func TestDefaultVantageFaultedGolden(t *testing.T) {
	rp := DefaultRetryPolicy()
	rp.MaxAttempts = 2
	for _, workers := range []int{1, 4} {
		got := crawlDigest(t, WithSites(40), WithWorkers(workers), WithSeed(7), WithInteract(true),
			WithFaults(UniformFaults(0.1, 7)), WithRetryPolicy(rp))
		if got != defaultVantageGoldenFaulted {
			t.Errorf("faulted default-vantage crawl at %d workers diverged from the pinned bytes:\n got %s\nwant %s",
				workers, got, defaultVantageGoldenFaulted)
		}
	}
}
