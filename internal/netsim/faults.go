package netsim

// This file is the fabric's fault-injection layer: a FaultModel hook
// alongside LatencyModel that lets experiments subject the crawl stack to
// the transient failures of a real measurement network — 5xx responses,
// connection resets, timeouts, truncated bodies, tail-latency spikes, and
// per-host outage ("flap") schedules driven by the virtual clock.
//
// Determinism is the design constraint: a fault decision is a pure
// function of the request (host, path, query) and its Stamp (retry
// attempt and the requesting browser's virtual time), never of global
// state or wall time. The same seed and fault config therefore
// produce byte-identical per-site records across runs and worker counts,
// and a zero-rate config is indistinguishable from no fault model at all.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
)

// Stamp is what a requester tells the fabric about one fetch attempt
// besides the request itself. It travels as an argument of Fetch, not in
// request headers, so stamping a fetch costs nothing.
type Stamp struct {
	// Attempt is the 1-based retry attempt. Fault models hash it so that
	// a retried request draws a fresh fault decision — without it, every
	// transient fault would be permanent and retrying pointless. Below 1
	// counts as 1 (a requester that does not retry).
	Attempt int
	// VClockMs is the requester's virtual time in Unix milliseconds.
	// Flap schedules read it: a flapping host is down during
	// deterministic windows of the *virtual* clock, so a backoff long
	// enough to cross the window genuinely rescues the request.
	VClockMs int64
}

// attempt is s.Attempt with values below 1 counted as 1.
func (s Stamp) attempt() int {
	if s.Attempt < 1 {
		return 1
	}
	return s.Attempt
}

// FaultKind enumerates the injectable fault types.
type FaultKind int

// Fault kinds.
const (
	FaultNone        FaultKind = iota
	FaultServerError           // synthesized 5xx response, handler not run
	FaultConnReset             // connection reset: error, no response
	FaultTimeout               // connection timeout: error after a stall
	FaultTruncate              // body cut short, read error at the cut
	FaultTailLatency           // latency multiplied, response intact
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultServerError:
		return "server-error"
	case FaultConnReset:
		return "conn-reset"
	case FaultTimeout:
		return "timeout"
	case FaultTruncate:
		return "truncate"
	case FaultTailLatency:
		return "tail-latency"
	default:
		return "unknown"
	}
}

// FaultDecision is one fault model verdict for one request attempt.
type FaultDecision struct {
	Kind FaultKind
	// Status is the response code for FaultServerError (default 503).
	Status int
	// LatencyMs overrides the charged latency for FaultTimeout (the stall
	// before the failure surfaces; default 1000 ms) and FaultConnReset
	// (default: the latency model's value for the request).
	LatencyMs float64
	// Factor multiplies the modelled latency for FaultTailLatency
	// (default 10).
	Factor float64
	// KeepFrac is the fraction of the body served before the cut for
	// FaultTruncate (default 0.5).
	KeepFrac float64
}

// FaultModel decides the fault (if any) to inject for a request attempt.
// Implementations must be deterministic functions of the request and its
// Stamp (the retry attempt and the requester's virtual time), or seeded
// crawls lose their reproducibility. The request is the caller's: a
// model reads it and must not keep or modify it.
type FaultModel func(req *http.Request, s Stamp) FaultDecision

// FaultError is the error returned for connection-level faults
// (FaultConnReset, FaultTimeout). LatencyMs is the virtual time the
// failed attempt consumed; browsers charge it to their clock so failures
// cost simulated time exactly like successes.
type FaultError struct {
	Kind      FaultKind
	Host      string
	LatencyMs float64
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("netsim: injected %s: %s", e.Kind, e.Host)
}

// Timeout reports whether the fault was a timeout, matching net.Error.
func (e *FaultError) Timeout() bool { return e.Kind == FaultTimeout }

// FaultConfig parameterizes the seeded deterministic fault model built by
// SeededFaults. All probabilities are per request attempt; the zero value
// injects nothing.
type FaultConfig struct {
	// Seed drives every fault decision. Independent of the web/browser
	// seeds so fault schedules can be varied while holding the web fixed.
	Seed uint64

	PServerError float64 // probability of a synthesized 5xx
	PConnReset   float64 // probability of a connection reset
	PTimeout     float64 // probability of a timeout
	PTruncate    float64 // probability of a truncated body
	PTailLatency float64 // probability of a tail-latency spike

	// ServerErrorStatus is the injected status (default 503).
	ServerErrorStatus int
	// TimeoutMs is the virtual stall charged for a timeout (default 1000).
	TimeoutMs float64
	// TailFactor multiplies the modelled latency on a spike (default 10).
	TailFactor float64
	// TruncateFrac is the fraction of the body served before the cut
	// (default 0.5).
	TruncateFrac float64

	// PHostFlap is the share of hosts with an outage schedule: a flapping
	// host times out every request during deterministic down-windows of
	// the virtual clock. FlapPeriodMs is the schedule period (default
	// 30000) and FlapDownFrac the fraction of each period the host is
	// down (default 0.25); each host gets a seeded phase offset so not
	// every flapping host is down at visit start.
	PHostFlap    float64
	FlapPeriodMs float64
	FlapDownFrac float64
}

// Enabled reports whether any fault rate is non-zero.
func (c FaultConfig) Enabled() bool {
	return c.PServerError > 0 || c.PConnReset > 0 || c.PTimeout > 0 ||
		c.PTruncate > 0 || c.PTailLatency > 0 || c.PHostFlap > 0
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.ServerErrorStatus == 0 {
		c.ServerErrorStatus = http.StatusServiceUnavailable
	}
	if c.TimeoutMs <= 0 {
		c.TimeoutMs = 1000
	}
	if c.TailFactor <= 0 {
		c.TailFactor = 10
	}
	if c.TruncateFrac <= 0 || c.TruncateFrac >= 1 {
		c.TruncateFrac = 0.5
	}
	if c.FlapPeriodMs <= 0 {
		c.FlapPeriodMs = 30000
	}
	if c.FlapDownFrac <= 0 || c.FlapDownFrac >= 1 {
		c.FlapDownFrac = 0.25
	}
	return c
}

// UniformFaults spreads an overall per-attempt fault rate across the
// fault mix in fixed proportions, plus a quarter-rate share of flapping
// hosts. It is the one-knob config behind cmd/experiments -faults.
func UniformFaults(rate float64, seed uint64) FaultConfig {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return FaultConfig{
		Seed:         seed,
		PServerError: 0.35 * rate,
		PConnReset:   0.20 * rate,
		PTimeout:     0.15 * rate,
		PTruncate:    0.15 * rate,
		PTailLatency: 0.15 * rate,
		PHostFlap:    0.25 * rate,
	}
}

// SeededFaults builds the deterministic fault model for a config: every
// decision hashes (seed, host, path, query, attempt), and flap schedules
// additionally read the stamp's virtual clock. Returns nil for a config
// with no fault enabled, so installing a zero config is exactly
// equivalent to installing no model.
func SeededFaults(cfg FaultConfig) FaultModel {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	return func(req *http.Request, s Stamp) FaultDecision {
		host := strings.ToLower(req.URL.Hostname())

		// Flap schedule: host-level outage windows on the virtual clock.
		if cfg.PHostFlap > 0 && hash01(cfg.Seed, "flap?", 0, host) < cfg.PHostFlap {
			phase := hash01(cfg.Seed, "flap-phase", 0, host) * cfg.FlapPeriodMs
			if math.Mod(float64(s.VClockMs)+phase, cfg.FlapPeriodMs) < cfg.FlapPeriodMs*cfg.FlapDownFrac {
				return FaultDecision{Kind: FaultTimeout, LatencyMs: cfg.TimeoutMs}
			}
		}

		// Per-attempt transient faults: one uniform draw against the
		// cumulative mix, keyed so each (request, attempt) pair is an
		// independent decision.
		u := hash01(cfg.Seed, "mix", s.attempt(), host, "\x00", req.URL.Path, "\x00", req.URL.RawQuery)
		switch {
		case u < cfg.PServerError:
			return FaultDecision{Kind: FaultServerError, Status: cfg.ServerErrorStatus}
		case u < cfg.PServerError+cfg.PConnReset:
			return FaultDecision{Kind: FaultConnReset}
		case u < cfg.PServerError+cfg.PConnReset+cfg.PTimeout:
			return FaultDecision{Kind: FaultTimeout, LatencyMs: cfg.TimeoutMs}
		case u < cfg.PServerError+cfg.PConnReset+cfg.PTimeout+cfg.PTruncate:
			return FaultDecision{Kind: FaultTruncate, KeepFrac: cfg.TruncateFrac}
		case u < cfg.PServerError+cfg.PConnReset+cfg.PTimeout+cfg.PTruncate+cfg.PTailLatency:
			return FaultDecision{Kind: FaultTailLatency, Factor: cfg.TailFactor}
		}
		return FaultDecision{}
	}
}

// hash01 maps (seed, salt, key, attempt) to a uniform value in [0,1)
// via FNV-1a, the same mixing primitive as the latency model. The key is
// given in pieces and hashed in sequence, exactly as their concatenation
// would be (FNV-1a is byte-sequential), so no key string is built. The
// attempt is spread across the word before the final mix: xoring the
// small integer in directly only perturbed the hash's low bits, so
// consecutive attempts drew values within ~4e-4 of each other and a
// retried request nearly always replayed its first attempt's fault —
// despite the documented contract that each attempt draws
// independently. Attempt 0 (the flap-schedule draws, which must not
// vary per attempt) hashes exactly as before.
func hash01(seed uint64, salt string, attempt int, key ...string) float64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	mix(salt)
	mix("\x00")
	for _, k := range key {
		mix(k)
	}
	h ^= uint64(attempt) * 0x9e3779b97f4a7c15
	h *= 1099511628211
	return float64(h>>11) / (1 << 53)
}

// truncatedBody serves a cut-short body: the truncated bytes read
// normally, then the reader fails with io.ErrUnexpectedEOF — exactly how
// a dropped connection mid-transfer surfaces to io.ReadAll.
type truncatedBody struct{ r io.Reader }

func (t *truncatedBody) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatedBody) Close() error { return nil }

// applyTruncation rewrites a response to deliver only the leading
// KeepFrac of full and to fail the read at the cut. Its header values are
// copied out of the slices they share with the route or handler that
// answered: the response is not pooled, so its consumer may keep it and
// write to it.
func applyTruncation(resp *http.Response, full string, fd FaultDecision) {
	frac := fd.KeepFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	keep := int(float64(len(full)) * frac)
	for k, vv := range resp.Header {
		resp.Header[k] = slices.Clone(vv)
	}
	resp.Body = &truncatedBody{r: strings.NewReader(full[:keep])}
	resp.ContentLength = int64(keep)
}
