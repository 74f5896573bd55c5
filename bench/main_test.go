package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own child process, as the
// benchmark binary does, and reads BENCHMARK.json from the repository
// root.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	specPath = "../BENCHMARK.json"
	os.Exit(m.Run())
}

// TestSmoke runs every workload BENCHMARK.json lists, untraced then
// traced, at a few dozen sites through the same path as a measured run,
// output checks included, and checks that the run measured every metric
// BENCHMARK.json lists, in the unit it lists.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	start := time.Now()
	out := t.TempDir()
	for _, sw := range spec.Workloads {
		w, _ := findWorkload(sw.Name)
		r, err := runWorkload(runOpts{w: w, seed: 7, trace: true, out: out, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Repeats != 1 {
			t.Errorf("%s: correct=%v repeats=%d problems=%v", w.name, r.Correct, r.Repeats, r.Problems)
		}
		for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
			m, ok := r.Metrics[d.Name]
			// A smoke child is too short for the profiler to catch every layer.
			if !ok && !strings.HasPrefix(d.Name, "cpu.") {
				t.Errorf("%s: no %s", w.name, d.Name)
			}
			if ok && m.Unit != d.Unit {
				t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w.name, d.Name, m.Unit, d.Unit)
			}
		}
		for _, f := range []string{w.name + ".spans.jsonl", w.name + ".cpu.pprof"} {
			if _, err := os.Stat(out + "/" + f); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 15s", d)
	}
}

// TestVerdict checks how --compare judges per-seed changes.
func TestVerdict(t *testing.T) {
	around := func(g float64) []float64 {
		return []float64{g - 0.002, g + 0.001, g, g + 0.002, g - 0.001, g, g + 0.001, g - 0.001, g, g}
	}
	for _, tc := range []struct {
		gains []float64
		bound float64
		want  string
	}{
		{around(0), 0.05, "unchanged"},
		{around(-0.03), 0.05, "unchanged"}, // worse, but within the bound
		{around(-0.10), 0.05, "worse"},
		{around(0.01), 0.05, "better"}, // every seed improved, if slightly
		{[]float64{-0.3, 0.3, -0.25, 0.25, -0.2, 0.2, -0.1, 0.1, 0, 0.01}, 0.05, "unresolved"},
		{nil, 0.05, "unresolved"},
	} {
		if got := verdict(tc.gains, tc.bound); got != tc.want {
			t.Errorf("gains %v, bound %v: %s, want %s", tc.gains, tc.bound, got, tc.want)
		}
	}
	p := map[uint64]float64{1: 100, 2: 200, 3: 50}
	c := map[uint64]float64{1: 110, 2: 180, 4: 70}
	got := changes(p, c)
	if len(got) != 2 || !near(median(got), 0) {
		t.Errorf("changes(%v, %v) = %v, want +10%% and -10%% for the two shared seeds", p, c, got)
	}
}
