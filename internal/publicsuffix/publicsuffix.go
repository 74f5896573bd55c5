// Package publicsuffix determines the public suffix (eTLD) and the
// registrable domain (eTLD+1) of a host name.
//
// CookieGuard's whole isolation model is keyed on eTLD+1: a "cross-domain"
// interaction is one between scripts whose registrable domains differ even
// though they execute in the same main-frame origin (paper §2.1). This
// package implements the standard public-suffix algorithm (normal, wildcard
// "*.", and exception "!" rules) over an embedded snapshot of the list that
// covers every suffix used by the synthetic web plus the common real-world
// multi-label suffixes, so behaviour matches what a browser would compute.
//
// Hosts are expected in lower-case ASCII form; IDNA/punycode conversion is
// out of scope for the simulation and documented as such in DESIGN.md.
package publicsuffix

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
)

// rule is one parsed public-suffix rule.
type rule struct {
	labels    []string // reversed: com, co.uk -> ["uk","co"]
	wildcard  bool     // *.ck
	exception bool     // !www.ck
}

var (
	// ErrEmptyHost is returned for an empty host string.
	ErrEmptyHost = errors.New("publicsuffix: empty host")
	// ErrIPAddress is returned when the host is an IP literal, which has
	// no registrable domain.
	ErrIPAddress = errors.New("publicsuffix: host is an IP address")
	// ErrIsSuffix is returned when the host itself is a public suffix, so
	// no eTLD+1 exists (e.g. "com" or "co.uk").
	ErrIsSuffix = errors.New("publicsuffix: host is a public suffix")
)

var rules = buildRules()

func buildRules() map[string][]rule {
	m := make(map[string][]rule, len(listData))
	for _, line := range listData {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		r := rule{}
		if strings.HasPrefix(line, "!") {
			r.exception = true
			line = line[1:]
		}
		if strings.HasPrefix(line, "*.") {
			r.wildcard = true
			line = line[2:]
		}
		labels := strings.Split(line, ".")
		// store reversed for suffix matching
		rev := make([]string, len(labels))
		for i, l := range labels {
			rev[len(labels)-1-i] = l
		}
		r.labels = rev
		tld := rev[0]
		m[tld] = append(m[tld], r)
	}
	return m
}

// normalize lower-cases and strips a trailing dot.
func normalize(host string) string {
	host = strings.ToLower(strings.TrimSpace(host))
	host = strings.TrimSuffix(host, ".")
	return host
}

// isIPLiteral reports whether host is an IP address literal, matching
// net.ParseIP(host) != nil without its per-call error allocations. Hosts
// containing a colon (IPv6 literals — never valid hostnames) fall back to
// net.ParseIP; everything else is checked as dotted-decimal IPv4.
func isIPLiteral(host string) bool {
	if strings.IndexByte(host, ':') >= 0 {
		return net.ParseIP(host) != nil
	}
	fields := 0
	i := 0
	for {
		// One decimal field: 1–3 digits, value ≤ 255, no leading zero
		// (net.ParseIP rejects leading zeros, e.g. "01.2.3.4").
		start := i
		v := 0
		for i < len(host) && host[i] >= '0' && host[i] <= '9' {
			v = v*10 + int(host[i]-'0')
			if v > 255 {
				return false
			}
			i++
		}
		n := i - start
		if n == 0 || n > 3 || (n > 1 && host[start] == '0') {
			return false
		}
		fields++
		if i == len(host) {
			return fields == 4
		}
		if host[i] != '.' || fields == 4 {
			return false
		}
		i++
	}
}

// psEntry is a memoized per-host computation: the public suffix, whether a
// list rule matched, and the derived registrable domain (or its error).
// Entries are immutable once stored.
type psEntry struct {
	suffix string
	listed bool
	domain string
	err    error
}

// hostCache memoizes per-host suffix/domain computations. The measurement
// pipeline asks for the same bounded universe of hosts millions of times
// per crawl, and the answers are pure functions of the embedded list, so a
// process-wide cache is sound. Size is bounded to keep a pathological
// input space from growing it without limit; past the cap, lookups compute
// without storing.
var (
	hostCache     sync.Map // string -> *psEntry
	hostCacheSize atomic.Int64
)

const hostCacheMax = 1 << 17

func lookupHost(host string) *psEntry {
	if e, ok := hostCache.Load(host); ok {
		return e.(*psEntry)
	}
	e := &psEntry{}
	if isIPLiteral(host) {
		e.suffix = host
		e.err = ErrIPAddress
	} else {
		e.suffix, e.listed = computePublicSuffix(host)
		e.domain, e.err = computeETLDPlusOne(host, e.suffix)
	}
	if hostCacheSize.Load() < hostCacheMax {
		if _, loaded := hostCache.LoadOrStore(host, e); !loaded {
			hostCacheSize.Add(1)
		}
	}
	return e
}

// PublicSuffix returns the public suffix of host and whether any rule from
// the embedded list matched (false means the implicit "*" fallback of the
// PSL algorithm was used, i.e. the last label alone is the suffix).
func PublicSuffix(host string) (suffix string, listed bool) {
	host = normalize(host)
	if host == "" {
		return host, false
	}
	e := lookupHost(host)
	return e.suffix, e.listed
}

// computePublicSuffix is the uncached suffix computation; host is already
// normalized, non-empty, and not an IP literal.
func computePublicSuffix(host string) (suffix string, listed bool) {
	labels := strings.Split(host, ".")
	n := len(labels)
	rev := make([]string, n)
	for i, l := range labels {
		rev[n-1-i] = l
	}

	// Find the longest matching rule; exceptions beat everything.
	var best *rule
	bestLen := 0
	for i := range rules[rev[0]] {
		r := &rules[rev[0]][i]
		if !matches(r, rev) {
			continue
		}
		effLen := len(r.labels)
		if r.wildcard {
			effLen++
		}
		if r.exception {
			// Exception rule: suffix is the rule minus its first
			// (leftmost) label.
			best = r
			bestLen = len(r.labels) - 1
			goto done
		}
		if best == nil || effLen > bestLen || (effLen == bestLen && !r.wildcard && best.wildcard) {
			best = r
			bestLen = effLen
		}
	}
done:
	if best == nil {
		// Implicit "*" rule: the TLD alone.
		return labels[n-1], false
	}
	if bestLen > n {
		bestLen = n
	}
	return strings.Join(labels[n-bestLen:], "."), true
}

func matches(r *rule, rev []string) bool {
	need := len(r.labels)
	if r.wildcard {
		// wildcard consumes one extra host label to the left
		if len(rev) < need+1 && !r.exception {
			// A wildcard rule also matches a host equal to its
			// literal part (e.g. host "ck" matches "*.ck" base).
			if len(rev) < need {
				return false
			}
		}
	}
	if len(rev) < need {
		return false
	}
	for i := 0; i < need; i++ {
		if rev[i] != r.labels[i] {
			return false
		}
	}
	return true
}

// ETLDPlusOne returns the registrable domain of host: the public suffix
// plus one more label. It errors for empty hosts, IP addresses, and hosts
// that are themselves public suffixes.
func ETLDPlusOne(host string) (string, error) {
	host = normalize(host)
	if host == "" {
		return "", ErrEmptyHost
	}
	e := lookupHost(host)
	return e.domain, e.err
}

// computeETLDPlusOne derives the registrable domain from an already
// computed suffix; host is normalized, non-empty, and not an IP literal.
func computeETLDPlusOne(host, suffix string) (string, error) {
	if host == suffix {
		return "", ErrIsSuffix
	}
	// one more label than the suffix
	rest := strings.TrimSuffix(host, "."+suffix)
	if rest == host {
		return "", ErrIsSuffix
	}
	i := strings.LastIndexByte(rest, '.')
	return rest[i+1:] + "." + suffix, nil
}

// RegistrableDomain is like ETLDPlusOne but returns the host unchanged when
// no registrable domain can be derived (IPs, bare suffixes, localhost).
// This is the forgiving form used throughout measurement code, where an
// unattributable host should group under itself rather than be dropped.
func RegistrableDomain(host string) string {
	d, err := ETLDPlusOne(host)
	if err != nil {
		return normalize(host)
	}
	return d
}
