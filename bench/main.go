// Command bench is the repository's benchmark. It measures one workload
// of the CookieGuard pipeline per invocation: it crawls several webs
// generated from the seed, each in a fresh child process (it re-executes
// itself) so that every crawl is cold, checks the outputs, prints every
// metric by name with its unit, and ends with one JSON line. From the
// repository root:
//
//	sh bench/run.sh --workload paper-measure --seed 0 --trace 0
//
// --trace 1 adds a traced child (CPU profile and spans) and reports the
// per-layer metrics instead of the end-to-end ones. --compare A B
// compares two sets of runs. The workloads and metrics, with their units
// and bounds, are those BENCHMARK.json lists. See README.md.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
var specPath = "BENCHMARK.json"

// metricSpec is one metric BENCHMARK.json lists.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the result
// line carries exactly its metrics, and --compare judges by its bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	RunSeconds float64      `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return &s, nil
}

// golden holds Results.StableJSON() digests of web 0 of seed 0 at full
// size, per workload: the determinism contract makes them a pure
// function of the seed and configuration, whatever the worker count.
//
//go:embed golden.json
var goldenJSON []byte

// reconcileTolerance bounds how far the traced child's CPU time summed
// over layers may be from its own getrusage CPU time.
const reconcileTolerance = 0.10

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 0, "seed the run's webs are generated from")
		seconds = flag.Float64("seconds", 0, "about how long the run measures, which sets how many webs it crawls (default BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "1 adds a traced child and reports per-layer metrics")
		out     = flag.String("out", "bench-out", "directory for runs.jsonl, spans and profiles")
		smoke   = flag.Bool("smoke", false, "crawl one web of a few dozen sites")
		compare = flag.Bool("compare", false, "compare two runs.jsonl files: --compare parent change")
	)
	flag.Parse()
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench --compare parent.jsonl change.jsonl")
			os.Exit(2)
		}
		if err := compareRuns(os.Stdout, spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: bench --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	r, err := runWorkload(runOpts{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, smoke: *smoke})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r.print(os.Stdout, spec)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ",")
}

type runOpts struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	out     string
	smoke   bool
}

// runRecord is one run: its checks and every metric it measured. It is
// appended to <out>/runs.jsonl, the input of --compare.
type runRecord struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Smoke     bool   `json:"smoke,omitempty"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Repeats   int    `json:"repeats"` // untraced children, one web each
	// Digests holds the sha256 of Results.StableJSON() of each untraced
	// child's web, in web order.
	Digests  []string          `json:"digests,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// Spread holds the first and third quartile over the untraced
	// children of each end-to-end metric.
	Spread map[string][2]float64 `json:"spread,omitempty"`
}

// child is one finished child.
type child struct {
	res    *childResult
	web    int // index of the child's web in the run
	traced bool
	units  int // units the child was asked for
}

// runWorkload crawls the run's webs, one untraced child each, then, when
// tracing, web 0 again in a traced child; then it checks and summarises
// them. A traced run gives up one untraced web to keep its length.
func runWorkload(o runOpts) (*runRecord, error) {
	sites, n := o.w.sites, o.w.children(o.seconds)
	if o.trace {
		n--
	}
	if o.smoke {
		sites, n = smokeSites, 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	out, err := filepath.Abs(o.out)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: o.w.name, Seed: o.seed, Trace: o.trace, Smoke: o.smoke, Metrics: map[string]metric{}}
	var kids []child
	run := func(web int, traced bool) {
		spec := childSpec{Workload: o.w.name, Seed: webSeed(o.seed, web), Sites: sites, Traced: traced, Out: out,
			Dir: filepath.Join(out, "tmp", fmt.Sprintf("%s-%d-%d-%v", o.w.name, os.Getpid(), web, traced))}
		c, err := spawn(spec)
		c.web, c.units = web, o.w.units(sites)
		rec.Attempted += int64(c.units)
		if err != nil {
			rec.Failed += int64(c.units)
			rec.Problems = append(rec.Problems, err.Error())
			return
		}
		kids = append(kids, c)
	}
	for web := 0; web < n; web++ {
		run(web, false)
	}
	if o.trace {
		run(0, true)
	}
	rec.check(kids, o)
	rec.endToEnd(kids)
	if o.trace {
		rec.perLayer(kids, o.smoke)
	}
	rec.Correct = len(rec.Problems) == 0 && rec.Failed == 0 && len(kids) > 0
	if err := appendRecord(filepath.Join(out, "runs.jsonl"), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// spawn runs one child in a fresh process and returns its result.
func spawn(spec childSpec) (child, error) {
	exe, err := os.Executable()
	if err != nil {
		return child{}, err
	}
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return child{}, err
	}
	defer os.RemoveAll(spec.Dir)
	b, err := json.Marshal(spec)
	if err != nil {
		return child{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return child{}, fmt.Errorf("%s web seed %d: %w", spec.Workload, spec.Seed, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return child{}, fmt.Errorf("%s web seed %d: bad result: %w", spec.Workload, spec.Seed, err)
	}
	return child{res: &res, traced: spec.Traced}, nil
}

// check applies the output checks that span children: the traced child
// emits the same Results bytes as the untraced child of its web, and web
// 0 of seed 0 at full size emits the recorded ones. A child failing a
// check counts its units as failed.
func (r *runRecord) check(kids []child, o runOpts) {
	want := ""
	if o.seed == 0 && !o.smoke {
		var golden map[string]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			r.Problems = append(r.Problems, "golden.json: "+err.Error())
		}
		want = golden[o.w.name]
	}
	for _, c := range kids {
		if !c.traced {
			r.Digests = append(r.Digests, c.res.Digest)
		}
	}
	if want == "" && len(r.Digests) > 0 {
		want = r.Digests[0]
	}
	for _, c := range kids {
		bad := c.res.Failures
		if c.web == 0 && c.res.Digest != want {
			bad = append(bad, fmt.Sprintf("StableJSON sha256 %s, want %s", c.res.Digest, want))
		}
		for _, p := range bad {
			r.Problems = append(r.Problems, fmt.Sprintf("web seed %d traced=%v: %s", webSeed(o.seed, c.web), c.traced, p))
		}
		if len(bad) > 0 {
			r.Failed += int64(c.units)
		}
		r.Attempted += c.res.Sent
		r.Failed += c.res.Errs
	}
}

// endToEnd sets the end-to-end metrics of the untraced children.
// Allocation counts are totals over all their units, so they average
// over every web of the run; the timed and sampled metrics are medians
// over the children.
func (r *runRecord) endToEnd(kids []child) {
	vals, units := map[string][]float64{}, map[string]string{}
	add := func(name string, v float64, unit string) {
		vals[name] = append(vals[name], v)
		units[name] = unit
	}
	var total, mallocs, allocated float64
	for _, c := range kids {
		if c.traced {
			continue
		}
		res, u := c.res, float64(max(c.res.Units, 1))
		r.Repeats++
		total += u
		mallocs += float64(res.Mallocs)
		allocated += float64(res.AllocBytes)
		add("setup_s", float64(res.SetupNs)/1e9, "s")
		add("units_per_s", u/(float64(res.RunNs)/1e9), "units/s")
		add("cpu_ms_per_unit", float64(res.CPUNs)/1e6/u, "ms")
		add("allocs_per_unit", float64(res.Mallocs)/u, "count")
		add("alloc_kb_per_unit", float64(res.AllocBytes)/1024/u, "KiB")
		add("peak_rss_mb", float64(res.MaxRSSKB)/1024, "MiB")
		if res.EvalNs > 0 {
			add("eval_s", float64(res.EvalNs)/1e9, "s")
		}
		if res.Sent > 0 {
			add("read_p50_ms", median(latencies(res)), "ms")
			add("http_err_frac", float64(res.Errs)/float64(res.Sent), "ratio")
		}
	}
	r.Spread = map[string][2]float64{}
	for name, xs := range vals {
		q1, med, q3 := quartiles(xs)
		r.Metrics[name] = metric{med, units[name]}
		r.Spread[name] = [2]float64{q1, q3}
	}
	if total > 0 {
		r.Metrics["allocs_per_unit"] = metric{mallocs / total, "count"}
		r.Metrics["alloc_kb_per_unit"] = metric{allocated / 1024 / total, "KiB"}
	}
}

// latencies is one child's reader-B latencies, failed requests counting
// as +Inf.
func latencies(res *childResult) []float64 {
	xs := append([]float64(nil), res.Summary...)
	for range res.SummaryFailed {
		xs = append(xs, math.Inf(1))
	}
	return xs
}

// perLayer sets the traced child's per-layer metrics, the tracing
// overhead against the untraced child of the same web, and checks that
// the CPU time charged to layers adds up to the CPU time the traced
// child used.
func (r *runRecord) perLayer(kids []child, smoke bool) {
	var traced, web0 *childResult
	var summary []float64
	for _, c := range kids {
		if c.traced {
			traced = c.res
		} else if web0 == nil {
			web0 = c.res
		}
		summary = append(summary, latencies(c.res)...)
	}
	if traced == nil {
		r.Problems = append(r.Problems, "no traced child")
		return
	}
	var sum float64
	for k, v := range traced.Metrics {
		r.Metrics[k] = v
		if strings.HasPrefix(k, "cpu.") {
			sum += v.Value
		}
	}
	u := float64(max(traced.Units, 1))
	own := float64(traced.CPUNs) / 1e6 / u
	r.Metrics["trace.cpu_ms_per_unit"] = metric{own, "ms"}
	r.Metrics["trace.layer_sum_ms_per_unit"] = metric{sum, "ms"}
	if web0 != nil {
		r.Metrics["trace.overhead_frac"] = metric{1 - float64(web0.RunNs)/float64(traced.RunNs), "ratio"}
	}
	// A smoke child lasts a few profiler ticks, too few to add up.
	if dev := sum/own - 1; math.Abs(dev) > reconcileTolerance && !smoke {
		r.Problems = append(r.Problems, fmt.Sprintf("layers sum to %.4f ms/unit, the traced child used %.4f (%+.1f%%)", sum, own, 100*dev))
	}
	if len(summary) > 0 {
		r.Metrics["server.summary_samples"] = metric{float64(len(summary)), "count"}
		if p := tailPercentile(len(summary)); p > 0 {
			r.Metrics["server.summary_tail_ms"] = metric{percentile(summary, p), "ms"}
			r.Metrics["server.summary_tail_pct"] = metric{p, "%"}
		}
	}
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// JSON has no infinities; a median of mostly failed requests is one.
	finite := *rec
	finite.Metrics = map[string]metric{}
	for k, m := range rec.Metrics {
		if !math.IsInf(m.Value, 0) && !math.IsNaN(m.Value) {
			finite.Metrics[k] = m
		}
	}
	if err := json.NewEncoder(f).Encode(&finite); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the report: problems, every metric with its unit (and
// quartiles over the children where it is taken over them), then the
// result line with the metrics BENCHMARK.json lists.
func (r *runRecord) print(w io.Writer, spec *benchSpec) {
	mode, defs := "end-to-end, untraced", spec.EndToEnd
	if r.Trace {
		mode, defs = "per-layer, traced", spec.PerLayer
	}
	fmt.Fprintf(w, "# %s seed %d: %d untraced webs, %s\n", r.Workload, r.Seed, r.Repeats, mode)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		line := fmt.Sprintf("%-36s %14.6g %s", k, m.Value, m.Unit)
		if q, ok := r.Spread[k]; ok {
			line += fmt.Sprintf("  [q1 %.6g, q3 %.6g, n=%d]", q[0], q[1], r.Repeats)
		}
		fmt.Fprintln(w, line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]metric{}}
	for _, d := range defs {
		// A layer the profiler never caught in this run measured zero.
		res.Metrics[d.Name] = metric{r.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Only NaN or Inf can fail to encode; report rather than print.
		fmt.Fprintln(os.Stderr, "bench: result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}
