package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	cg "cookieguard"
)

// childEnv carries a child's spec. The benchmark re-executes itself with
// it set, so every measured crawl runs in a fresh process and pays what
// one cmd/crawl or cmd/experiments invocation pays.
const childEnv = "COOKIEGUARD_BENCH_CHILD"

type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"` // of the child's web: webSeed(run seed, web index)
	Sites    int    `json:"sites"`
	Traced   bool   `json:"traced"`
	// Dir is a fresh directory the child owns (the journal's); Out is
	// where a traced child leaves its spans and CPU profile.
	Dir string `json:"dir"`
	Out string `json:"out"`
}

// childResult is what one child measured. The Run window is from just
// before Pipeline.Run (or its traced body) to its return.
type childResult struct {
	SetupNs    int64  `json:"setup_ns"` // cookieguard.New, plus StartServer on serve-live
	Units      int    `json:"units"`
	RunNs      int64  `json:"run_ns"`
	CPUNs      int64  `json:"cpu_ns"` // user+sys over the Run window
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	MaxRSSKB   int64  `json:"max_rss_kb"` // peak RSS up to the end of the Run window
	Digest     string `json:"digest"`     // sha256 of Results.StableJSON()
	// EvalNs is guard-eval's EvaluatePerformance + EvaluateBreakage.
	EvalNs int64 `json:"eval_ns,omitempty"`
	// Summary holds serve-live's reader-B latencies of answered requests
	// in ms from due time, SummaryFailed the count of failed ones; Sent
	// and Errs count both readers' requests.
	Summary       []float64 `json:"summary,omitempty"`
	SummaryFailed int       `json:"summary_failed,omitempty"`
	Sent          int64     `json:"sent,omitempty"`
	Errs          int64     `json:"errs,omitempty"`
	// Metrics are the child's per-layer figures.
	Metrics map[string]metric `json:"metrics"`
	// Failures lists the output checks this child failed.
	Failures []string `json:"failures,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childMain runs the child named by spec and prints its result as JSON.
func childMain(spec string) int {
	var s childSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad spec:", err)
		return 2
	}
	res, err := runChild(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", s.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// procSample is the process counters the Run window is measured by.
type procSample struct {
	cpuNs, maxRSSKB    int64
	mallocs, allocated uint64
	gcCycles           uint64
	gcCPU, userCPU     float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rm := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		rm[i].Name = n
	}
	metrics.Read(rm)
	return procSample{
		cpuNs:     ru.Utime.Nano() + ru.Stime.Nano(),
		maxRSSKB:  ru.Maxrss,
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcCycles:  rm[0].Value.Uint64(),
		gcCPU:     rm[1].Value.Float64(),
		userCPU:   rm[2].Value.Float64() + rm[3].Value.Float64(),
	}
}

func runChild(spec childSpec) (*childResult, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if spec.Traced {
		tr = newTracer()
	}
	ctx := context.Background()

	s := tr.begin("setup", spanRef{})
	p := cg.New(w.pipelineOptions(spec)...)
	var load *serveLoad
	if w.serve {
		// Run binds the WithServer address itself; binding first gives the
		// readers the port before the crawl starts.
		addr, err := p.StartServer("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("StartServer: %w", err)
		}
		load = newServeLoad("http://"+addr, tr)
	}
	setupNs := tr.end(s, "")

	var prof bytes.Buffer
	if spec.Traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	before := sampleProcess()
	ready := time.Now()
	if load != nil {
		load.start(ctx)
	}
	res, err := crawl(ctx, p, w.serve, tr)
	wall := time.Since(ready)
	after := sampleProcess()
	if spec.Traced {
		pprof.StopCPUProfile()
	}
	if load != nil {
		load.stopPolling()
	}
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}

	units := res.Summary.SitesTotal
	out := &childResult{
		SetupNs:    setupNs,
		Units:      units,
		RunNs:      wall.Nanoseconds(),
		CPUNs:      after.cpuNs - before.cpuNs,
		Mallocs:    after.mallocs - before.mallocs,
		AllocBytes: after.allocated - before.allocated,
		MaxRSSKB:   after.maxRSSKB,
		Metrics:    map[string]metric{},
	}
	if want := w.units(spec.Sites); units != want {
		out.Failures = append(out.Failures, fmt.Sprintf("observed %d units, want %d sites × %d vantages × %d personas = %d",
			units, spec.Sites, w.vantages, w.personas, want))
	}
	u := float64(max(units, 1))
	put := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	// Counters are read before the evaluations and reads below add to them.
	put("crawler.unit_fail_frac", float64(res.Failures.VisitsFailed)/u, "ratio")
	put("netsim.requests_per_unit", float64(p.Net.Requests())/u, "count")
	put("netsim.faults_per_unit", float64(p.Net.Faults())/u, "count")
	cs := p.CacheStats()
	put("artifact.program_hit_ratio", ratio(cs.ProgramHits, cs.ProgramHits+cs.ProgramMisses), "ratio")
	put("artifact.dom_hit_ratio", ratio(cs.DOMHits, cs.DOMHits+cs.DOMMisses), "ratio")
	put("artifact.body_hit_ratio", ratio(cs.BodyHits, cs.BodyHits+cs.BodyMisses), "ratio")
	put("browser.pool_reuse_ratio", p.PoolStats().ReuseRate(), "ratio")
	ss := p.SchedStats()
	put("crawler.virtual_ms_per_unit", float64(ss.VirtualMs)/u, "ms")
	put("crawler.shed_fetches_per_unit", float64(ss.ShedFetches)/u, "count")
	put("crawler.circuits_opened", float64(ss.Opened), "count")
	put("crawler.second_pass_kept_ratio", ratio(uint64(ss.SecondPassKept), uint64(ss.Requeued)), "ratio")
	if js, ok := p.CheckpointStats(); ok {
		put("journal.records", float64(js.Records), "count")
		put("journal.snapshots", float64(js.Snapshots), "count")
		put("journal.fsyncs", float64(js.Fsyncs), "count")
		put("journal.bytes_per_unit", float64(js.BytesWritten)/u, "B")
	}
	put("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), "count")
	gc, user := after.gcCPU-before.gcCPU, after.userCPU-before.userCPU
	put("runtime.gc_cpu_frac", gc/max(gc+user, 1e-9), "ratio")
	put("process.cpu_util", float64(out.CPUNs)/(float64(out.RunNs)*float64(runtime.NumCPU())), "ratio")

	s = tr.begin("analysis.stablejson", spanRef{})
	body, err := res.StableJSON()
	put("analysis.stablejson_ms", float64(tr.end(s, ""))/1e6, "ms")
	if err != nil {
		return nil, fmt.Errorf("StableJSON: %w", err)
	}
	out.Digest = digest(body)

	if w.perfFrac > 0 {
		perfNs, breakNs, err := w.evaluate(p, spec.Sites, tr)
		if err != nil {
			out.Failures = append(out.Failures, err.Error())
		}
		out.EvalNs = perfNs + breakNs
		put("perf.evaluate_s", float64(perfNs)/1e9, "s")
		put("breakage.evaluate_s", float64(breakNs)/1e9, "s")
	}
	if load != nil {
		if err := load.finish(p.ResultStore().Latest().Index, body); err != nil {
			out.Failures = append(out.Failures, err.Error())
		}
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := p.Shutdown(sctx)
		cancel()
		if err != nil {
			out.Failures = append(out.Failures, "Shutdown: "+err.Error())
		}
		out.Sent, out.Errs = load.sent.Load(), load.errs.Load()
		for _, v := range load.summary {
			if math.IsInf(v, 1) {
				out.SummaryFailed++
			} else {
				out.Summary = append(out.Summary, v)
			}
		}
		put("server.mirror_get_ms", median(load.mirrorGets), "ms")
		put("server.mirror_kb", load.mirrorKB/float64(max(load.mirrored, 1)), "KiB")
		put("server.gen_late_p95_ms", percentile(load.late, 95), "ms")
		put("resultstore.snapshots_missed", float64(p.ResultStore().Latest().Index)-float64(load.mirrored), "count")
	}

	if spec.Traced {
		if err := tracedMetrics(spec, out, tr, prof.Bytes(), put); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedMetrics derives a traced child's per-layer figures from its CPU
// profile and spans, and leaves both in spec.Out.
func tracedMetrics(spec childSpec, out *childResult, tr *tracer, prof []byte, put func(string, float64, string)) error {
	u := float64(max(out.Units, 1))
	samples, err := decodeProfile(prof)
	if err != nil {
		return err
	}
	for layer, ns := range attribute(samples) {
		put("cpu."+layer+"_ms_per_unit", float64(ns)/1e6/u, "ms")
	}
	if recv := tr.durations("stream.recv"); len(recv) > 0 {
		var sum float64
		for _, d := range recv {
			sum += d
		}
		put("crawler.recv_wait_us_per_unit", sum/u, "us")
	}
	if obs := tr.durations("analysis.observe"); len(obs) > 0 {
		put("analysis.observe_us_p50", median(obs), "us")
		if p := tailPercentile(len(obs)); p > 0 {
			put("analysis.observe_us_tail", percentile(obs, p), "us")
			put("analysis.observe_tail_pct", p, "%")
		}
		put("analysis.observe_samples", float64(len(obs)), "count")
	}
	if fin := tr.durations("analysis.finalize"); len(fin) > 0 {
		put("analysis.finalize_ms", fin[0]/1e3, "ms")
	}
	if err := os.WriteFile(filepath.Join(spec.Out, spec.Workload+".cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	return tr.write(filepath.Join(spec.Out, spec.Workload+".spans.jsonl"))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
