package netsim

// Vantage points: the same frozen web, observed from different network
// locations. The fabric's default latency model is a single per-host
// hash — one implicit observer. A Vantage names an observer and gives it
// its own latency model and fault rates, so a multi-region measurement
// can crawl one registered web "from" several places and compare the
// latency and failure tails (the Figure 6 comparison across regions)
// without regenerating or re-registering anything.
//
// A Vantage never mutates the Internet: From returns a lightweight view
// that serves every request with the vantage's own latency and fault
// models, so any number of vantage views can serve concurrently over one
// fabric, sharing its handlers, route tables, CNAMEs, and counters.

import "net/http"

// Vantage is a named crawl origin: a region with its own latency model
// and fault rates. The zero value is the implicit default vantage — it
// observes the fabric with DefaultLatency and no faults, as a direct
// Internet.Fetch of a fabric without a fault model does, so code that
// threads a Vantage through unconditionally stays byte-identical to code
// that never heard of them.
type Vantage struct {
	// Name identifies the vantage point (e.g. "eu-west"). Requests from
	// a named vantage are charged RegionLatency(Name); the empty name
	// keeps DefaultLatency.
	Name string
	// Faults is the seeded fault schedule of requests from this vantage
	// (region-dependent fault rates). The zero config injects no faults,
	// so a vantage can reshape latency only.
	Faults FaultConfig
}

// Default reports whether the vantage is the implicit default: it names
// nothing and overrides nothing, so crawling from it is exactly crawling
// the fabric directly.
func (v Vantage) Default() bool {
	return v.Name == "" && !v.Faults.Enabled()
}

// RegionLatency is the per-region analogue of DefaultLatency: a
// deterministic per-(region, host) RTT — a region-wide floor plus a
// region-salted per-host spread plus the per-path component — so two
// vantages see the same host at genuinely different, reproducible
// distances. An empty region returns DefaultLatency.
func RegionLatency(region string) LatencyModel {
	if region == "" {
		return DefaultLatency
	}
	rh := fnv64(region)
	floor := 4 + float64(rh%40) // region RTT floor: 4–43 ms
	return func(req *http.Request) float64 {
		h := rh
		host := req.URL.Hostname()
		for i := 0; i < len(host); i++ {
			h ^= uint64(host[i])
			h *= 1099511628211
		}
		p := fnv64(req.URL.Path)
		return floor + float64(h%53) + float64(p%7)
	}
}

// RegionSeed derives a per-region fault seed from a base seed, so a
// multi-vantage run can hold the web fixed while every region draws an
// independent fault schedule (region-dependent fault rates use the same
// FaultConfig with this seed). The empty region returns seed unchanged.
func RegionSeed(seed uint64, region string) uint64 {
	if region == "" {
		return seed
	}
	return seed ^ (fnv64(region) | 1)
}

// VantageView is a Fetcher serving requests from one vantage point over
// a shared Internet. Construct with Internet.From.
type VantageView struct {
	net     *Internet
	latency LatencyModel
	faults  FaultModel // nil: no faults
}

// From returns the fabric viewed from a vantage point. The view resolves
// the vantage's models once — RegionLatency(Name), which is
// DefaultLatency for the empty name, and SeededFaults(Faults), which is
// no faults for a zero config — and never reads a fault model installed
// on the fabric. Routing state (hosts and CNAMEs) and the
// request/fault counters are shared with every other view.
func (i *Internet) From(v Vantage) *VantageView {
	return &VantageView{net: i, latency: RegionLatency(v.Name), faults: SeededFaults(v.Faults)}
}

// Fetch serves one stamped request attempt from the vantage point.
func (vv *VantageView) Fetch(req *http.Request, st Stamp) (*http.Response, error) {
	s := vv.net.view()
	return vv.net.fetch(req, st, &s, vv.latency, vv.faults)
}
