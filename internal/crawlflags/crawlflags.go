// Package crawlflags registers the crawl flags that cmd/crawl and
// cmd/experiments share and translates them into pipeline options, so
// both commands configure a crawl the same way.
package crawlflags

import (
	"flag"
	"strings"

	"cookieguard"
)

// Flags holds the shared crawl flags' values once their flag set is
// parsed.
type Flags struct {
	Sites, Workers, Retries                      int
	Seed                                         uint64
	Faults                                       float64
	SecondPass, Breaker, Autopilot, CMP, Pooling bool
	Vantages, Personas                           string
}

// Register defines the shared crawl flags on fs. Only -sites' default
// and help differ between the commands.
func Register(fs *flag.FlagSet, sites int, sitesUsage string) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Sites, "sites", sites, sitesUsage)
	fs.IntVar(&f.Workers, "workers", 16, "concurrent visits (crawl workers)")
	fs.Uint64Var(&f.Seed, "seed", 0, "override the default deterministic seed (reproducible full-scale runs)")
	fs.Float64Var(&f.Faults, "faults", 0,
		"overall per-attempt fault rate injected into the crawl's fetches (0 disables; 0.1 = 10% of attempts fault, spread across 5xx/reset/timeout/truncation/tail-latency plus flapping hosts; deterministic for a fixed -seed)")
	fs.IntVar(&f.Retries, "retries", 1,
		"attempt budget per fetch under faults (1 = no retries); retried with jittered backoff on the virtual clock")
	fs.BoolVar(&f.SecondPass, "second-pass", false,
		"re-crawl visits that failed on transient classes once the primary frontier drains (only the re-crawl's record is kept)")
	fs.BoolVar(&f.Breaker, "breaker", false,
		"per-host circuit breaking: shed fetches/visits to hosts that keep failing ('circuit-open') instead of burning the retry budget")
	fs.BoolVar(&f.Autopilot, "autopilot", false,
		"self-tuning breaker thresholds: learn each host's failure threshold and cooldown from its observed inter-failure intervals (implies -breaker)")
	fs.StringVar(&f.Vantages, "vantages", "",
		"comma-separated vantage-point names; crawls every site once per region (region-derived latency, region-seeded -faults), tagging records with their vantage")
	fs.StringVar(&f.Personas, "personas", "",
		"comma-separated consent personas (e.g. accept,reject,dismiss); crawls every (site, vantage) pair once per persona, clicking the matching consent-banner action before interacting (implies -cmp), tagging records with their persona")
	fs.BoolVar(&f.CMP, "cmp", false,
		"generate the web with consent-management platforms (banner + gated trackers) without acting on the banners; implied by -personas")
	fs.BoolVar(&f.Pooling, "pooling", true,
		"recycle per-visit state (pages, DOM arenas, interpreters, cached exchanges) through object pools; -pooling=false reproduces the unpooled baseline byte for byte")
	return f
}

// Options returns the pipeline options the parsed flags select. Faults,
// retries and the autopilot are left out when off; every other option is
// a no-op at its flag's default.
func (f *Flags) Options() []cookieguard.Option {
	var vantages []cookieguard.Vantage
	for _, name := range splitNames(f.Vantages) {
		vantages = append(vantages, cookieguard.RegionVantage(name, f.Faults, f.Seed))
	}
	opts := []cookieguard.Option{
		cookieguard.WithSites(f.Sites),
		cookieguard.WithWorkers(f.Workers),
		cookieguard.WithSeed(f.Seed),
		cookieguard.WithInteract(true),
		cookieguard.WithPooling(f.Pooling),
		cookieguard.WithSecondPass(f.SecondPass),
		cookieguard.WithBreaker(cookieguard.Breaker{Enabled: f.Breaker}),
		cookieguard.WithVantages(vantages...),
		cookieguard.WithPersonas(splitNames(f.Personas)...),
		cookieguard.WithCMP(f.CMP),
	}
	if f.Faults > 0 {
		opts = append(opts, cookieguard.WithFaults(cookieguard.UniformFaults(f.Faults, f.Seed)))
	}
	if f.Retries > 1 {
		rp := cookieguard.DefaultRetryPolicy()
		rp.MaxAttempts = f.Retries
		opts = append(opts, cookieguard.WithRetryPolicy(rp))
	}
	if f.Autopilot {
		opts = append(opts, cookieguard.WithBreakerAutopilot())
	}
	return opts
}

// splitNames parses a comma-separated name list, dropping empties.
func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}
