package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	cg "cookieguard"
)

// A unit is one (site, vantage, persona) crawl; every rate is per unit.
//
// The workloads differ in what they share and which layers they reach:
//
//   - paper-measure is the paper's §4 crawl: the most distinct sites, so
//     the largest working set (the artifact cache never evicts), and
//     analysis, cookie jar, script interpreter and GC dominate. It
//     bypasses the guard, faults, lanes, journal and server.
//   - resilient-journal revisits each site four times (two vantages ×
//     two consent personas) under 10% faults, so it shares the most work
//     and has the smallest working set. It alone runs the crawler lanes,
//     breaker and autopilot, the fault/retry path, consent clicks and
//     the journal; its many cheap failed units weigh per-unit fixed
//     costs.
//   - guard-eval is the paper's §7 evaluation, the only workload where
//     the guard middleware runs; paper-measure is its bypass.
//   - serve-live reads beside writes: the only workload on the sharded
//     analyzer, snapshot publishing, the result store and the per-index
//     encoding caches.
//
// A run crawls several webs, each in its own cold child: web i of seed s
// is generated from webSeed(s, i). Per-unit costs differ from web to web
// far more than from run to run of one web, so a run averages over all
// its webs' units rather than repeating one web.
type workload struct {
	name string
	// sites is the site count of one child's web; personas and vantages
	// multiply it into units.
	sites, vantages, personas int
	// childSeconds is about how long one child takes on two CPUs; a run
	// of S seconds crawls S/childSeconds webs.
	childSeconds float64
	// options configures the pipeline; dir is a fresh, empty directory
	// the child owns.
	options func(seed uint64, dir string) []cg.Option
	// perfFrac and breakageFrac size guard-eval's evaluations, as
	// fractions of sites.
	perfFrac, breakageFrac float64
	serve                  bool
}

// smokeSites is the site count of a smoke run (--smoke): enough to reach
// every code path of every workload in well under a second.
const smokeSites = 40

var workloads = []workload{
	{
		name: "paper-measure", sites: 3000, vantages: 1, personas: 1, childSeconds: 4,
		options: func(uint64, string) []cg.Option { return nil },
	},
	{
		name: "resilient-journal", sites: 1200, vantages: 2, personas: 2, childSeconds: 3.5,
		options: func(seed uint64, dir string) []cg.Option {
			rp := cg.DefaultRetryPolicy()
			rp.MaxAttempts = 3
			return []cg.Option{
				cg.WithFaults(cg.UniformFaults(0.1, seed)),
				cg.WithRetryPolicy(rp),
				cg.WithSecondPass(true),
				cg.WithBreaker(cg.Breaker{Enabled: true}),
				cg.WithBreakerAutopilot(),
				cg.WithVantages(cg.RegionVantage("eu-west", 0.1, seed), cg.RegionVantage("us-east", 0.1, seed)),
				cg.WithVantageParallel(true),
				cg.WithPersonas("accept", "reject"),
				cg.WithCheckpoint(dir),
			}
		},
	},
	{
		name: "guard-eval", sites: 2000, vantages: 1, personas: 1, childSeconds: 5,
		perfFrac: 0.15, breakageFrac: 0.01,
		options: func(uint64, string) []cg.Option {
			return []cg.Option{cg.WithGuard(cg.DefaultGuardPolicy())}
		},
	},
	{
		name: "serve-live", sites: 2000, vantages: 1, personas: 1, childSeconds: 4, serve: true,
		options: func(uint64, string) []cg.Option {
			return []cg.Option{cg.WithServer("127.0.0.1:0")}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// guardStrict is breakage.GuardStrict, the strict-policy condition of
// the paper's Table 3. The public API takes the condition without
// naming its type, so the benchmark passes the constant and checks the
// condition the returned table reports.
const (
	guardStrict     = 1
	guardStrictName = "cookieguard"
)

// pipelineOptions is the complete option list of one child.
func (w workload) pipelineOptions(spec childSpec) []cg.Option {
	return append([]cg.Option{
		cg.WithSites(spec.Sites),
		cg.WithSeed(spec.Seed),
		cg.WithInteract(true),
		cg.WithWorkers(runtime.NumCPU()),
	}, w.options(spec.Seed, spec.Dir)...)
}

// units is the unit count a run over sites must observe.
func (w workload) units(sites int) int { return sites * w.vantages * w.personas }

// minChildren is the fewest webs a run crawls untraced, however short
// its --seconds: enough for a median.
const minChildren = 3

// children is how many webs a run of seconds crawls. It depends on
// seconds alone, never on how fast the machine is, so a seed always
// names the same inputs.
func (w workload) children(seconds float64) int {
	return max(minChildren, int(seconds/w.childSeconds))
}

// webSeed is the seed of web i of a run with seed seed. Web 0 is the
// seed itself.
func webSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<32 }

// evaluate runs guard-eval's §7 evaluations and checks their shape.
func (w workload) evaluate(p *cg.Pipeline, sites int, tr *tracer) (perfNs, breakNs int64, err error) {
	perfN := max(1, int(float64(sites)*w.perfFrac))
	breakN := max(1, int(float64(sites)*w.breakageFrac))
	s := tr.begin("perf.evaluate", spanRef{})
	pr, err := p.EvaluatePerformance(perfN)
	perfNs = tr.end(s, "")
	if err != nil {
		return 0, 0, fmt.Errorf("EvaluatePerformance: %w", err)
	}
	if len(pr.Samples) == 0 || len(pr.Samples) > perfN {
		return 0, 0, fmt.Errorf("EvaluatePerformance(%d) returned %d samples", perfN, len(pr.Samples))
	}
	s = tr.begin("breakage.evaluate", spanRef{})
	t3, err := p.EvaluateBreakage(breakN, guardStrict)
	breakNs = tr.end(s, "")
	if err != nil {
		return 0, 0, fmt.Errorf("EvaluateBreakage: %w", err)
	}
	if t3.Sites != breakN || t3.Condition.String() != guardStrictName {
		return 0, 0, fmt.Errorf("EvaluateBreakage(%d) returned %d sites under %q", breakN, t3.Sites, t3.Condition)
	}
	return perfNs, breakNs, nil
}

// crawl runs the measured crawl. Untraced it is Pipeline.Run. Traced,
// and not serving, it is Run's own body — NewAnalyzer, Stream, Observe,
// Finalize — so the benchmark can time the wait for each log and each
// Observe; a serving Run publishes through a path the public API does
// not expose piece by piece, so it stays one call.
func crawl(ctx context.Context, p *cg.Pipeline, serve bool, tr *tracer) (*cg.Results, error) {
	if tr == nil || serve {
		s := tr.begin("run", spanRef{})
		defer tr.end(s, "")
		return p.Run(ctx)
	}
	run := tr.begin("run", spanRef{})
	defer tr.end(run, "")
	an := p.NewAnalyzer()
	logs, errs := p.Stream(ctx)
	for {
		s := tr.begin("stream.recv", run)
		v, ok := <-logs
		if !ok {
			tr.end(s, "")
			break
		}
		unit := v.Site + "/" + v.Vantage + "/" + v.Persona
		tr.end(s, unit)
		s = tr.begin("analysis.observe", run)
		an.Observe(v)
		tr.end(s, unit)
	}
	if err := <-errs; err != nil {
		return nil, err
	}
	s := tr.begin("analysis.finalize", run)
	defer tr.end(s, "")
	return an.Finalize(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
