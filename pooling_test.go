package cookieguard

import (
	"context"
	"encoding/json"
	"testing"
)

// pipelineRecords crawls the pipeline and returns site -> encoded log.
func pipelineRecords(t *testing.T, opts ...Option) map[string]string {
	t.Helper()
	p := New(opts...)
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
		out[l.Site] = string(b)
	}
	return out
}

// TestWithPoolingEquivalence is the pipeline-level determinism contract
// of PR 4: WithPooling(false) and the pooled default emit byte-identical
// per-site records — clean and under faults with retries, across worker
// counts.
func TestWithPoolingEquivalence(t *testing.T) {
	base := []Option{WithSites(40), WithInteract(true), WithSeed(3)}
	ref := pipelineRecords(t, append([]Option{WithWorkers(2), WithPooling(false)}, base...)...)
	for _, workers := range []int{1, 8} {
		got := pipelineRecords(t, append([]Option{WithWorkers(workers)}, base...)...)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d sites != %d", workers, len(got), len(ref))
		}
		for site, want := range ref {
			if got[site] != want {
				t.Fatalf("workers=%d: pooled pipeline record for %s differs", workers, site)
			}
		}
	}

	faulted := []Option{
		WithSites(40), WithInteract(true), WithSeed(3),
		WithFaults(UniformFaults(0.12, 3)), WithRetryPolicy(DefaultRetryPolicy()),
	}
	fref := pipelineRecords(t, append([]Option{WithWorkers(4), WithPooling(false)}, faulted...)...)
	fgot := pipelineRecords(t, append([]Option{WithWorkers(4)}, faulted...)...)
	for site, want := range fref {
		if fgot[site] != want {
			t.Fatalf("faulted pooled pipeline record for %s differs", site)
		}
	}
	if faultedRecords(t, fref) == 0 {
		t.Fatal("no record shows an injected fault; the faulted comparison is vacuous")
	}
}

// TestRunReleaseMatchesKeptLogs: Run releases each log once Observe
// returns, and the crawl releases each requeued log it never delivers,
// so later visits build their logs in those buffers. Run's Results
// equal a Stream fold that keeps every log unreleased — pooled and
// unpooled, at 1 and 4 workers, clean and under faults with personas and
// the second pass — and the kept logs read the same after those runs.
func TestRunReleaseMatchesKeptLogs(t *testing.T) {
	cases := []struct {
		name      string
		opts      []Option
		resilient bool
	}{
		{"clean", []Option{WithSites(300), WithSeed(0), WithInteract(true)}, false},
		{"resilient", []Option{
			WithSites(300), WithSeed(0), WithInteract(true), WithCMP(true),
			WithFaults(UniformFaults(0.1, 7)), WithRetryPolicy(DefaultRetryPolicy()),
			WithSecondPass(true), WithPersonas("accept", "reject"),
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(extra ...Option) []Option {
				return append(tc.opts[:len(tc.opts):len(tc.opts)], extra...)
			}
			p := New(opts(WithWorkers(4))...)
			kept, err := collectStream(p)
			if err != nil {
				t.Fatal(err)
			}
			an := p.NewAnalyzer()
			for _, l := range kept {
				an.Observe(l)
			}
			res := an.Finalize()
			want := stableJSON(t, res)
			keptJSON, err := json.Marshal(kept)
			if err != nil {
				t.Fatal(err)
			}
			if tc.resilient {
				if p.Net.Faults() == 0 {
					t.Fatal("the fabric injected no fault")
				}
				if p.SchedStats().Requeued == 0 {
					t.Fatal("the second pass requeued nothing, so no undelivered log was released")
				}
			}

			for _, pooled := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					got, err := New(opts(WithWorkers(workers), WithPooling(pooled))...).Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if stableJSON(t, got) != want {
						t.Fatalf("pooled=%v workers=%d: Run's Results differ from the fold over kept logs", pooled, workers)
					}
				}
			}
			if again, _ := json.Marshal(kept); string(again) != string(keptJSON) {
				t.Fatal("kept logs changed while other runs released theirs")
			}

			l := kept[0]
			l.Release()
			if l.Cookies != nil || l.Requests != nil || l.Scripts != nil || l.Mutations != nil {
				t.Fatalf("released log keeps slices: %+v", l)
			}
			l.Release() // a second Release is a no-op
		})
	}
}

// TestProgressStatsCallback: the live-counter callback fires serialized
// with monotone progress and carries fabric/cache/pool counters.
func TestProgressStatsCallback(t *testing.T) {
	var last ProgressStats
	var calls int
	p := New(
		WithSites(20), WithWorkers(4), WithInteract(true),
		WithProgressStats(func(ps ProgressStats) {
			calls++
			if ps.Done < last.Done || ps.Done > ps.Total {
				t.Errorf("non-monotone progress: %+v after %+v", ps, last)
			}
			last = ps
		}),
	)
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 20 || last.Done != 20 || last.Total != 20 {
		t.Fatalf("progress stats: calls=%d last=%+v", calls, last)
	}
	if last.Requests == 0 {
		t.Fatal("fabric request counter missing from progress stats")
	}
	if last.Cache == (CacheStats{}) {
		t.Fatal("cache stats missing from progress stats")
	}
	if last.Pool.PageAcquired == 0 {
		t.Fatal("pool stats missing from progress stats")
	}
	if p.PoolStats().ReuseRate() <= 0 {
		t.Fatal("pooled crawl reported no reuse")
	}
}
