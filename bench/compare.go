package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Smoke {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// bySeed holds one metric of a set's correct runs of one workload, traced
// or not, by seed. A seed run more than once keeps its last run.
func bySeed(runs []runRecord, workload string, traced bool, name string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced && r.Correct {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func valuesOf(m map[uint64]float64) []float64 {
	xs := make([]float64, 0, len(m))
	for _, x := range m {
		xs = append(xs, x)
	}
	return xs
}

// changes is the change's relative change over the parent, (c − p) / |p|,
// of every seed both sets ran. Comparing a seed with itself takes the
// differences between the seeds' webs out of the comparison.
func changes(parent, change map[uint64]float64) []float64 {
	var out []float64
	for s, p := range parent {
		if c, ok := change[s]; ok && p != 0 {
			out = append(out, (c-p)/math.Abs(p))
		}
	}
	return out
}

// verdict judges per-seed relative changes against a bound. gains are
// the changes signed so that positive is better. Better means the change
// won at least nine tenths of the seeds, ties counting for neither;
// otherwise unresolved means the changes spread, between their
// quartiles, wider than the bound, and worse means their median is worse
// by more than the bound.
func verdict(gains []float64, bound float64) string {
	if len(gains) == 0 {
		return "unresolved"
	}
	wins := 0
	for _, g := range gains {
		if g > 0 {
			wins++
		}
	}
	q1, g, q3 := quartiles(gains)
	switch {
	case 10*wins >= 9*len(gains):
		return "better"
	case q3-q1 > bound:
		return "unresolved"
	case -g > bound:
		return "worse"
	}
	return "unchanged"
}

// compareRuns prints, per workload, every end-to-end metric of both sets
// with a verdict against its bound in BENCHMARK.json, then the change of
// every other metric the runs recorded, untraced and traced.
func compareRuns(w io.Writer, spec *benchSpec, parentPath, changePath string) error {
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	judged := map[string]bool{}
	for _, d := range spec.EndToEnd {
		judged[d.Name] = true
	}
	row := func(wl string, traced bool, name, unit string, judge *metricSpec) {
		p, c := bySeed(parent, wl, traced, name), bySeed(change, wl, traced, name)
		pq1, pm, pq3 := quartiles(valuesOf(p))
		cq1, cm, cq3 := quartiles(valuesOf(c))
		rel := changes(p, c)
		delta := "     n/a"
		if len(rel) > 0 {
			delta = fmt.Sprintf("%+7.2f%%", 100*median(rel))
		}
		v := ""
		if judge != nil {
			sign := 1.0
			if judge.Better == "lower" {
				sign = -1
			}
			gains := make([]float64, len(rel))
			for i, x := range rel {
				gains[i] = sign * x
			}
			v = verdict(gains, judge.Bound)
		}
		fmt.Fprintf(w, "  %-34s %12.5g [%.5g, %.5g] → %12.5g [%.5g, %.5g] %-8s %s  %s (seeds %d/%d, paired %d)\n",
			name, pm, pq1, pq3, cm, cq1, cq3, unit, delta, v, len(p), len(c), len(rel))
	}
	// both reports whether both sets measured a metric of a workload.
	both := func(wl string, traced bool, name string) bool {
		return len(bySeed(parent, wl, traced, name)) > 0 && len(bySeed(change, wl, traced, name)) > 0
	}
	for _, sw := range spec.Workloads {
		wl := sw.Name
		fmt.Fprintf(w, "== %s: median [q1, q3] over seeds, parent → change, median per-seed change\n", wl)
		for _, side := range []struct {
			name string
			runs []runRecord
		}{{"parent", parent}, {"change", change}} {
			for _, r := range side.runs {
				if r.Workload == wl && !r.Correct {
					fmt.Fprintf(w, "  %s run seed %d trace %v failed its checks: %v\n", side.name, r.Seed, r.Trace, r.Problems)
				}
			}
		}
		for _, pr := range parent {
			for _, cr := range change {
				if pr.Workload == wl && cr.Workload == wl && pr.Seed == cr.Seed && pr.Trace == cr.Trace {
					for i := range min(len(pr.Digests), len(cr.Digests)) {
						if pr.Digests[i] != cr.Digests[i] {
							fmt.Fprintf(w, "  web seed %d: Results bytes differ (sha256 %.12s → %.12s)\n",
								webSeed(pr.Seed, i), pr.Digests[i], cr.Digests[i])
						}
					}
				}
			}
		}
		for i := range spec.EndToEnd {
			if d := &spec.EndToEnd[i]; both(wl, false, d.Name) {
				row(wl, false, d.Name, d.Unit, d)
			}
		}
		for _, traced := range []bool{false, true} {
			units := map[string]string{}
			for _, r := range parent {
				if r.Workload == wl && r.Trace == traced {
					for k, m := range r.Metrics {
						if (traced || !judged[k]) && both(wl, traced, k) {
							units[k] = m.Unit
						}
					}
				}
			}
			names := make([]string, 0, len(units))
			for k := range units {
				names = append(names, k)
			}
			sort.Strings(names)
			if len(names) > 0 {
				label := "other untraced metrics"
				if traced {
					label = "per layer (traced runs)"
				}
				fmt.Fprintf(w, "  -- %s\n", label)
			}
			for _, k := range names {
				row(wl, traced, k, units[k], nil)
			}
		}
	}
	return nil
}
