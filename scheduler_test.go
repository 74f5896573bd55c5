package cookieguard

// Pipeline-level tests for the scheduler subsystem: the default-config
// output-equivalence guard, multi-vantage runs over one frozen web and
// one artifact cache, and the per-vantage analysis tables.

import (
	"context"
	"encoding/json"
	"testing"
)

// crawlBySite marshals a pipeline crawl into per-(site,vantage) records.
func crawlBySite(t *testing.T, p *Pipeline) map[string]string {
	t.Helper()
	logs, err := collectStream(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(logs))
	for _, l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		out[l.Site+"\x00"+l.Vantage] = string(b)
	}
	return out
}

// TestDefaultConfigSchedulerEquivalence is the PR-4 output-equivalence
// acceptance test at the public-API level: the default configuration
// and the same pipeline with the scheduler subsystem spelled out
// explicitly (breaker off, second pass off, one default vantage) emit
// byte-identical per-site records.
func TestDefaultConfigSchedulerEquivalence(t *testing.T) {
	base := []Option{WithSites(40), WithWorkers(6), WithInteract(true), WithSeed(11)}
	def := crawlBySite(t, New(base...))
	explicit := crawlBySite(t, New(append(base,
		WithSecondPass(false),
		WithBreaker(Breaker{}),
		WithVantages(Vantage{}),
	)...))
	if len(def) != len(explicit) {
		t.Fatalf("record counts differ: %d vs %d", len(def), len(explicit))
	}
	for k, rec := range def {
		if explicit[k] != rec {
			t.Fatalf("record %q differs between default and explicit scheduler config:\n%s\n%s",
				k, rec, explicit[k])
		}
	}
	if len(def) != 40 {
		t.Fatalf("crawled %d records, want 40", len(def))
	}
}

// TestWithVantagesPerVantageTables: a two-vantage run over one frozen
// web produces per-vantage record streams and per-vantage latency-tail
// tables, while the artifact cache is shared across vantages.
func TestWithVantagesPerVantageTables(t *testing.T) {
	p := New(
		WithSites(30), WithWorkers(6), WithInteract(true),
		WithVantages(RegionVantage("eu-west", 0, 0), RegionVantage("us-east", 0, 0)),
	)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.SitesTotal != 60 {
		t.Fatalf("SitesTotal = %d, want 60 (30 sites × 2 vantages)", res.Summary.SitesTotal)
	}
	rows := res.VantageTable()
	if len(rows) != 2 || rows[0].Vantage != "eu-west" || rows[1].Vantage != "us-east" {
		t.Fatalf("vantage table rows = %+v, want eu-west and us-east", rows)
	}
	for _, r := range rows {
		if r.Visits != 30 {
			t.Fatalf("vantage %s visits = %d, want 30", r.Vantage, r.Visits)
		}
		if r.Complete > 0 && r.LoadP99Ms <= 0 {
			t.Fatalf("vantage %s has complete visits but no latency tail", r.Vantage)
		}
	}
	if rows[0].LoadP50Ms == rows[1].LoadP50Ms && rows[0].LoadP99Ms == rows[1].LoadP99Ms {
		t.Fatal("both vantages report identical latency tails; region models not applied")
	}
	// One frozen web, one cache: the second vantage's crawl must replay
	// the first's parsed artifacts, so hits exceed what a single crawl
	// of 30 sites could produce alone.
	cs := p.CacheStats()
	if cs.BodyHits == 0 || cs.ProgramHits == 0 {
		t.Fatalf("artifact cache unused across vantages: %+v", cs)
	}
}

// TestVantageStreamsAreDeterministic: the same seed and vantage set
// reproduce byte-identical records at different worker counts, vantage
// tags included.
func TestVantageStreamsAreDeterministic(t *testing.T) {
	mk := func(workers int) map[string]string {
		return crawlBySite(t, New(
			WithSites(20), WithWorkers(workers), WithInteract(true), WithSeed(3),
			WithVantages(RegionVantage("eu-west", 0.1, 3), RegionVantage("us-east", 0.1, 3)),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
			WithSecondPass(true),
		))
	}
	a, b := mk(7), mk(2)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for k, rec := range a {
		if b[k] != rec {
			t.Fatalf("record %q differs across worker counts", k)
		}
	}
	// Both vantages must actually appear in the keys.
	seen := map[string]bool{}
	for k := range a {
		for _, v := range []string{"eu-west", "us-east"} {
			if len(k) > len(v) && k[len(k)-len(v):] == v {
				seen[v] = true
			}
		}
	}
	if !seen["eu-west"] || !seen["us-east"] {
		t.Fatalf("missing vantage records: %v", seen)
	}
}

// TestMultiVantageRunResults: Run over a two-vantage crawl with the
// scheduler stack (region faults, retries, breaker) folds byte-identical
// Results at any worker count, and the per-vantage scheduler breakdown
// reaches SchedStats with its children summing to the totals.
func TestMultiVantageRunResults(t *testing.T) {
	run := func(workers int) (string, SchedSnapshot) {
		p := New(
			WithSites(25), WithWorkers(workers), WithInteract(true), WithSeed(3),
			WithVantages(RegionVantage("eu-west", 0.1, 3), RegionVantage("us-east", 0.1, 3)),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
			WithBreaker(Breaker{Enabled: true, RoundVisits: 8}),
		)
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b), p.SchedStats()
	}
	a, sa := run(6)
	b, sb := run(2)
	if a != b {
		t.Fatal("Results differ across worker counts")
	}
	if len(sa.Vantages) != 2 {
		t.Fatalf("per-vantage sched breakdown has %d entries, want 2: %+v", len(sa.Vantages), sa)
	}
	var childVisits int64
	for _, vs := range sa.Vantages {
		childVisits += vs.Visits
	}
	if childVisits != sa.Visits || sa.Visits == 0 {
		t.Fatalf("per-vantage Visits sum %d != total %d", childVisits, sa.Visits)
	}
	if sa.Visits != sb.Visits || sa.Vantages["eu-west"].Visits != sb.Vantages["eu-west"].Visits {
		t.Fatalf("sched totals differ across worker counts:\n6w: %+v\n2w: %+v", sa, sb)
	}
}

// TestMultiVantageProgressMonotonic: WithProgressStats reports one monotonic
// done out of sites × vantages across the interleaved lanes — no
// per-vantage restart.
func TestMultiVantageProgressMonotonic(t *testing.T) {
	last := 0
	p := New(
		WithSites(15), WithWorkers(4), WithSeed(3),
		WithVantages(RegionVantage("eu-west", 0, 0), RegionVantage("us-east", 0, 0)),
		WithProgressStats(func(ps ProgressStats) {
			// Serialized by the crawl's delivery lock.
			if ps.Total != 30 {
				t.Errorf("total = %d, want 30", ps.Total)
			}
			if ps.Done != last+1 {
				t.Errorf("done jumped %d -> %d", last, ps.Done)
			}
			last = ps.Done
		}),
	)
	if _, err := collectStream(p); err != nil {
		t.Fatal(err)
	}
	if last != 30 {
		t.Fatalf("final done = %d, want 30", last)
	}
}

// TestBreakerAutopilotOption: WithBreakerAutopilot implies the breaker
// (whatever the option order), keeps the crawl deterministic across
// worker counts, and records breaker activity in SchedStats.
func TestBreakerAutopilotOption(t *testing.T) {
	mk := func(workers int) (map[string]string, SchedSnapshot) {
		p := New(
			WithSites(40), WithWorkers(workers), WithInteract(true), WithSeed(3),
			WithFaults(FaultConfig{Seed: 99, PHostFlap: 0.5, FlapPeriodMs: 240000, FlapDownFrac: 0.5}),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 3}),
			WithBreakerAutopilot(),
		)
		return crawlBySite(t, p), p.SchedStats()
	}
	a, sa := mk(6)
	b, sb := mk(2)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for k, rec := range a {
		if b[k] != rec {
			t.Fatalf("record %q differs across worker counts under autopilot", k)
		}
	}
	if sa.Opened == 0 {
		t.Fatal("autopilot never opened a circuit on the flapping schedule")
	}
	if sa.Opened != sb.Opened || sa.Reopened != sb.Reopened || sa.ShedFetches != sb.ShedFetches {
		t.Fatalf("autopilot transitions differ across worker counts:\n6w: %+v\n2w: %+v", sa, sb)
	}
}
