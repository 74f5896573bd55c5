package cookieguard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// shardStackOptions is the full-scheduler-stack configuration the
// sharding acceptance criteria run under: region faults, retries,
// breaker with autopilot, second pass, two vantages, two consent
// personas.
func shardStackOptions(sites, workers int) []Option {
	return []Option{
		WithSites(sites), WithWorkers(workers), WithInteract(true), WithSeed(7),
		WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
		WithSecondPass(true),
		WithBreaker(Breaker{Enabled: true, RoundVisits: 8}),
		WithBreakerAutopilot(),
		WithPersonas("accept", "reject"),
	}
}

// unitKey is the full unit coordinate (site, vantage, persona) of a log.
func unitKey(l VisitLog) string {
	return l.Site + "\x00" + l.Vantage + "\x00" + l.Persona
}

// collectUnits drains a pipeline's stream into its records keyed by
// unitKey, failing on duplicates. It returns the records gathered so
// far alongside the stream's error, so a crashed crawl's partial
// output is still inspectable. Safe to call off the test goroutine.
func collectUnits(ctx context.Context, p *Pipeline) (map[string]string, error) {
	got := map[string]string{}
	var dupErr error
	logs, errs := p.Stream(ctx)
	for l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			return got, err
		}
		k := unitKey(l)
		if _, dup := got[k]; dup && dupErr == nil {
			dupErr = fmt.Errorf("unit %q delivered twice", k)
		}
		got[k] = string(b)
	}
	if err := <-errs; err != nil {
		return got, err
	}
	return got, dupErr
}

// streamByUnit is collectUnits on the test goroutine.
func streamByUnit(t *testing.T, p *Pipeline) map[string]string {
	t.Helper()
	got, err := collectUnits(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// requireSameUnits fails unless got holds exactly want's units, each
// byte-identical.
func requireSameUnits(t *testing.T, what string, want, got map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d units, want %d", what, len(got), len(want))
	}
	for k, rec := range want {
		if got[k] != rec {
			t.Fatalf("unit %q differs between unsharded crawl and %s", k, what)
		}
	}
}

// shardWorker builds shard i of n over checkpoint dir <base>/shard-<i>
// under the full scheduler stack.
func shardWorker(base string, i, n int, extra ...Option) *Pipeline {
	return New(append(append(shardStackOptions(15, 4),
		WithShardWorker(i, n),
		WithCheckpoint(filepath.Join(base, shardDirName(i)))), extra...)...)
}

// TestShardWorkerUnion: two WithShardWorker pipelines (the subprocess
// protocol's per-process view) on a feedback-free crawl partition the
// unit space exactly — their streams are disjoint and their union is
// byte-identical to the unsharded record set.
func TestShardWorkerUnion(t *testing.T) {
	opts := []Option{
		WithSites(16), WithWorkers(3), WithInteract(true), WithSeed(9),
		WithFaults(UniformFaults(0.1, 9)),
		WithPersonas("accept", "reject"),
	}
	base := streamByUnit(t, New(opts...))
	got := map[string]string{}
	for i := 0; i < 2; i++ {
		part := streamByUnit(t, New(append(append([]Option{}, opts...), WithShardWorker(i, 2))...))
		for k, rec := range part {
			if _, dup := got[k]; dup {
				t.Fatalf("unit %q crawled by both shard workers", k)
			}
			got[k] = rec
		}
	}
	requireSameUnits(t, "worker union", base, got)
}

// TestShardWorkerJournalExchange is the subprocess protocol's heart
// run in-process: N WithShardWorker pipelines over checkpoint dirs
// <base>/shard-<i>, with the breaker + autopilot + second pass on, so
// every shard must fold every other shard's outcomes by tailing the
// sibling journals (live-flushed appends ARE the publishes). The union
// of the worker streams must be byte-identical to the unsharded crawl.
func TestShardWorkerJournalExchange(t *testing.T) {
	const n = 3
	base := streamByUnit(t, New(shardStackOptions(15, 4)...))
	dir := t.TempDir()
	parts := make([]map[string]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := shardWorker(dir, i, n)
			defer p.Shutdown(context.Background())
			parts[i], errs[i] = collectUnits(context.Background(), p)
		}(i)
	}
	wg.Wait()
	union := map[string]string{}
	for i, part := range parts {
		if errs[i] != nil {
			t.Fatalf("shard worker %d: %v", i, errs[i])
		}
		for k, rec := range part {
			if _, dup := union[k]; dup {
				t.Fatalf("unit %q crawled by two shard workers", k)
			}
			union[k] = rec
		}
	}
	requireSameUnits(t, "journal-exchange worker union", base, union)
}

// TestShardWorkerCrashAndResume is kill-and-adopt at the worker level,
// the scenario cmd/crawl's supervisor drives with processes: three
// journal-exchanging workers run the full scheduler stack, shard 0 is
// crash-injected after 5 journaled units, and a fresh shard-0 worker
// on the same checkpoint directory resumes while its siblings wait on
// its outcomes. The union of every worker's records — the crashed
// attempt's included, deduplicated by unit — must be byte-identical to
// the unsharded crawl, with no unit lost.
func TestShardWorkerCrashAndResume(t *testing.T) {
	const n = 3
	base := streamByUnit(t, New(shardStackOptions(15, 4)...))
	dir := t.TempDir()
	// Siblings block on shard 0's outcomes; if shard 0 fails other than
	// as armed, cancel them instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// attempts[0] is shard 0's crashed attempt; attempts[n] its resume.
	attempts := make([]map[string]string, n+1)
	errs := make([]error, n+1)
	var resumedStats JournalStats
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i != 0 {
				p := shardWorker(dir, i, n)
				defer p.Shutdown(context.Background())
				attempts[i], errs[i] = collectUnits(ctx, p)
				return
			}
			crashed := shardWorker(dir, 0, n, WithCrashAfterUnits(5))
			attempts[0], errs[0] = collectUnits(ctx, crashed)
			crashed.Shutdown(context.Background())
			if !errors.Is(errs[0], ErrCrashInjected) {
				cancel()
				return
			}
			resumed := shardWorker(dir, 0, n)
			defer resumed.Shutdown(context.Background())
			attempts[n], errs[n] = collectUnits(ctx, resumed)
			resumedStats, _ = resumed.CheckpointStats()
		}(i)
	}
	wg.Wait()
	if !errors.Is(errs[0], ErrCrashInjected) {
		t.Fatalf("armed shard 0: got %v, want ErrCrashInjected", errs[0])
	}
	if resumedStats.LoadedUnits < 5 {
		t.Fatalf("resumed shard 0 loaded %d units from its journal, want the 5 journaled before the kill", resumedStats.LoadedUnits)
	}
	union := map[string]string{}
	for i, part := range attempts {
		if i != 0 && errs[i] != nil {
			t.Fatalf("attempt %d: %v", i, errs[i])
		}
		for k, rec := range part {
			if prev, dup := union[k]; dup && prev != rec {
				t.Fatalf("unit %q re-emitted with different bytes after resume", k)
			}
			union[k] = rec
		}
	}
	requireSameUnits(t, "crash-and-resume worker union", base, union)
}

// TestShardWorkerFeedbackNeedsCheckpoint: a worker says what it is
// missing without a checkpoint directory — a breaker crawl's worker has
// no outcome exchange without sibling journals, and a crash-injected
// worker has no journal to arm.
func TestShardWorkerFeedbackNeedsCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
		want string
	}{
		{"breaker", WithBreaker(Breaker{Enabled: true}), "WithCheckpoint"},
		{"crash-after", WithCrashAfterUnits(3), "Journal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(WithSites(8), WithSeed(3), tc.opt, WithShardWorker(0, 2))
			_, errs := p.Stream(context.Background())
			if err := <-errs; err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error naming %s, got %v", tc.want, err)
			}
		})
	}
}
