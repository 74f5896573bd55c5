package browser

// Crawl-side resilience: a bounded retry policy with seeded jittered
// backoff on the virtual clock, and the failure taxonomy that classifies
// every way a fetch can go wrong. Document failures abort a page load
// (there is nothing to render); everything below the document — scripts,
// subresources, frames, beacons — degrades gracefully and is recorded on
// the page instead.

import (
	"errors"
	"fmt"
	"io"

	"cookieguard/internal/netsim"
	"cookieguard/internal/stats"
)

// FailureClass is the failure taxonomy of the crawl stack. It classifies
// both per-request failures (Request.Failure) and fatal visit failures
// (instrument.VisitLog.Failure); analysis rolls the classes up into the
// failure table.
type FailureClass string

// Failure classes.
const (
	FailNone        FailureClass = ""             // success
	FailDNS         FailureClass = "dns"          // host not resolvable (NXDOMAIN)
	FailConnReset   FailureClass = "conn-reset"   // connection reset mid-exchange
	FailTimeout     FailureClass = "timeout"      // connection or host-flap timeout
	FailHTTP        FailureClass = "http"         // final response status >= 400
	FailTruncated   FailureClass = "truncated"    // body cut short mid-transfer
	FailCircuitOpen FailureClass = "circuit-open" // fetch shed: the host's circuit is open
	FailInternal    FailureClass = "internal"     // request construction etc.
)

// Transient reports whether the class is a transient network failure —
// the kind a retry, a later re-crawl pass, or a circuit-breaker probe
// can plausibly rescue. Deliberately narrower than retryable: 5xx
// responses retry within a fetch but are completed exchanges (the host
// is up), so they neither open circuits nor qualify a visit for the
// crawler's second pass.
func (f FailureClass) Transient() bool {
	switch f {
	case FailConnReset, FailTimeout, FailTruncated:
		return true
	}
	return false
}

// RetryPolicy bounds transient-fault retries per fetch. The zero value
// disables retrying (single attempt); DefaultRetryPolicy is a sane
// starting point. Backoff runs on the virtual clock — attempt n waits
// min(BackoffMaxMs, BackoffBaseMs·BackoffFactor^(n-1)), jittered by
// ±JitterFrac from the browser's seeded PRNG — so retried crawls stay
// deterministic for a fixed seed and fault config.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per fetch (1 or 0 = no
	// retries). Only transient failures are retried: connection resets,
	// timeouts, truncated bodies, and 5xx responses. DNS failures and
	// 4xx responses are terminal.
	MaxAttempts   int
	BackoffBaseMs float64 // default 50
	BackoffFactor float64 // default 2
	BackoffMaxMs  float64 // default 2000
	JitterFrac    float64 // default 0.1
}

// DefaultRetryPolicy is three attempts with 50ms→100ms jittered backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BackoffBaseMs: 50, BackoffFactor: 2, BackoffMaxMs: 2000, JitterFrac: 0.1}
}

// backoffMs computes the jittered virtual-clock wait before retrying
// after the attempt-th try (1-based).
func (rp RetryPolicy) backoffMs(attempt int, rng *stats.Rand) float64 {
	base := rp.BackoffBaseMs
	if base <= 0 {
		base = 50
	}
	factor := rp.BackoffFactor
	if factor <= 0 {
		factor = 2
	}
	maxMs := rp.BackoffMaxMs
	if maxMs <= 0 {
		maxMs = 2000
	}
	jitter := rp.JitterFrac
	if jitter < 0 || jitter >= 1 {
		jitter = 0.1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= factor
		if d >= maxMs {
			d = maxMs
			break
		}
	}
	return d * (1 + jitter*(2*rng.Float64()-1))
}

// ErrCircuitOpen is returned when Options.Gate sheds a fetch because the
// target host's circuit is open. Shed fetches burn no attempts and no
// virtual time — that is the point of the breaker.
var ErrCircuitOpen = errors.New("browser: circuit open")

// FetchGate vets outbound fetches before any attempt is made. The
// crawler's circuit breaker installs one per visit: a host whose circuit
// is open is shed with FailCircuitOpen instead of burning the retry
// budget against a downed host. Implementations must be safe for
// concurrent use (one gate snapshot is shared by every browser of a
// scheduling round) and deterministic for the visit's lifetime.
type FetchGate interface {
	// Allow reports whether host may be fetched.
	Allow(host string) bool
}

// HostOutcome is one visit's fetch accounting for one host: how many
// fetches terminally failed on a transient class and how many completed
// an exchange. It feeds the crawler's per-host circuit breaker.
type HostOutcome struct {
	Host      string
	Transient int // terminal conn-reset/timeout/truncated fetches
	OK        int // completed exchanges (any status — the host is up)
}

// LoadError is a fatal page-load failure: the document itself could not
// be retrieved, so there is no page to degrade into. Its Class feeds the
// visit-level failure taxonomy.
type LoadError struct {
	URL    string
	Class  FailureClass
	Status int   // non-zero for FailHTTP
	Err    error // underlying fetch error; nil for HTTP status failures
}

func (e *LoadError) Error() string {
	if e.Err != nil {
		return e.Err.Error()
	}
	return fmt.Sprintf("document status %d", e.Status)
}

func (e *LoadError) Unwrap() error { return e.Err }

// ClassifyError maps an error returned by Visit (or any fetch-derived
// error) to its failure class, FailNone for nil.
func ClassifyError(err error) FailureClass {
	if err == nil {
		return FailNone
	}
	var le *LoadError
	if errors.As(err, &le) {
		return le.Class
	}
	return classifyFetchError(err)
}

// classifyFetchError maps a transport-level error to its class.
func classifyFetchError(err error) FailureClass {
	var fe *netsim.FaultError
	if errors.As(err, &fe) {
		if fe.Kind == netsim.FaultTimeout {
			return FailTimeout
		}
		return FailConnReset
	}
	var nf *netsim.HostNotFoundError
	if errors.As(err, &nf) {
		return FailDNS
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return FailTruncated
	}
	if errors.Is(err, ErrCircuitOpen) {
		return FailCircuitOpen
	}
	return FailInternal
}

// retryable reports whether a failed attempt may be retried: transient
// network faults and server-side 5xx yes; NXDOMAIN and client errors no.
func retryable(f FailureClass, status int) bool {
	switch f {
	case FailConnReset, FailTimeout, FailTruncated:
		return true
	case FailHTTP:
		return status >= 500
	}
	return false
}

// fetchResult is the full outcome of one (possibly retried) fetch.
type fetchResult struct {
	body     string
	bodyHash string
	status   int
	retries  int          // attempts beyond the first
	failure  FailureClass // terminal classification; FailNone on success
	err      error        // terminal error; nil for FailHTTP and success
}
