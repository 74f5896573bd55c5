// Package filterlist implements an Adblock-Plus-syntax filter engine, the
// analogue of the adblockparser tool plus the nine crowd-sourced filter
// lists (EasyList, EasyPrivacy, ...) the paper combines to classify
// advertising/tracking scripts (§4.3).
//
// Supported grammar (the subset those lists actually rely on for script
// URL classification):
//
//	||domain.com^          domain-anchored rule
//	|https://exact...      left-anchored rule
//	plain/substring        substring rule
//	*                      wildcard inside any pattern
//	^                      separator placeholder
//	@@...                  exception rule
//	$script,third-party    options (script, image, third-party, domain=)
//	! comment              comments
package filterlist

import (
	"strings"

	"cookieguard/internal/publicsuffix"
	"cookieguard/internal/urlutil"
)

// ResourceType is the requested resource's type for option matching.
type ResourceType int

// Resource types.
const (
	TypeScript ResourceType = iota
	TypeImage
	TypeSubdocument
	TypeOther
)

// Request describes a URL to classify.
type Request struct {
	URL        string
	SiteDomain string // eTLD+1 of the page including the resource
	Type       ResourceType
}

// Rule is one parsed filter rule.
type Rule struct {
	Raw       string
	Exception bool

	pattern      string // with wildcards/anchors stripped into fields below
	domainAnchor string // "||example.com" -> "example.com"
	leftAnchor   bool
	parts        []string   // pattern split on '*', '^' boundaries handled in match
	sepParts     [][]string // per part: its '^'-separated segments, nil without '^'

	optScript     bool
	optImage      bool
	optTypesSet   bool
	optThirdParty int // 0 unset, 1 third-party, -1 ~third-party
	optDomains    []string
	optNotDomains []string
}

// ParseRule parses one filter line; it returns nil for comments, empty
// lines, and unsupported constructs (element hiding "##").
func ParseRule(line string) *Rule {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
		return nil
	}
	if strings.Contains(line, "##") || strings.Contains(line, "#@#") {
		return nil // element hiding: out of scope for URL classification
	}
	r := &Rule{Raw: line}
	if strings.HasPrefix(line, "@@") {
		r.Exception = true
		line = line[2:]
	}
	// options
	if i := strings.LastIndexByte(line, '$'); i >= 0 && i < len(line)-1 && !strings.Contains(line[i:], "/") {
		opts := strings.Split(line[i+1:], ",")
		line = line[:i]
		for _, o := range opts {
			switch {
			case o == "script":
				r.optScript = true
				r.optTypesSet = true
			case o == "image":
				r.optImage = true
				r.optTypesSet = true
			case o == "third-party" || o == "3p":
				r.optThirdParty = 1
			case o == "~third-party" || o == "~3p":
				r.optThirdParty = -1
			case strings.HasPrefix(o, "domain="):
				for _, d := range strings.Split(o[len("domain="):], "|") {
					if strings.HasPrefix(d, "~") {
						r.optNotDomains = append(r.optNotDomains, strings.ToLower(d[1:]))
					} else {
						r.optDomains = append(r.optDomains, strings.ToLower(d))
					}
				}
			}
		}
	}
	if strings.HasPrefix(line, "||") {
		rest := line[2:]
		// split at the first separator to find the anchored domain
		end := len(rest)
		for i := 0; i < len(rest); i++ {
			if rest[i] == '^' || rest[i] == '/' || rest[i] == '*' {
				end = i
				break
			}
		}
		if end < len(rest) && rest[end] == '*' {
			// Wildcard inside the host part (e.g. "||trk-*.example^"):
			// fall back to a substring pattern anchored at a slash, so
			// it matches right after "://" in the URL.
			r.pattern = "/" + rest
		} else {
			r.domainAnchor = strings.ToLower(rest[:end])
			r.pattern = rest[end:]
		}
	} else if strings.HasPrefix(line, "|") {
		r.leftAnchor = true
		r.pattern = line[1:]
	} else {
		r.pattern = line
	}
	r.parts = strings.Split(r.pattern, "*")
	for i, part := range r.parts {
		if strings.IndexByte(part, '^') >= 0 {
			if r.sepParts == nil {
				r.sepParts = make([][]string, len(r.parts))
			}
			r.sepParts[i] = strings.Split(part, "^")
		}
	}
	if r.domainAnchor == "" && r.pattern == "" {
		return nil
	}
	return r
}

// matches reports whether the rule matches the request (ignoring
// exception status — the List handles precedence).
func (r *Rule) matches(req Request, host, reqDomain string) bool {
	// type options
	if r.optTypesSet {
		switch req.Type {
		case TypeScript:
			if !r.optScript {
				return false
			}
		case TypeImage:
			if !r.optImage {
				return false
			}
		default:
			return false
		}
	}
	// third-party option
	if r.optThirdParty != 0 {
		third := reqDomain != req.SiteDomain
		if r.optThirdParty == 1 && !third {
			return false
		}
		if r.optThirdParty == -1 && third {
			return false
		}
	}
	// domain= option (the page's domain)
	if len(r.optDomains) > 0 {
		found := false
		for _, d := range r.optDomains {
			if req.SiteDomain == d {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, d := range r.optNotDomains {
		if req.SiteDomain == d {
			return false
		}
	}
	// domain anchor
	if r.domainAnchor != "" {
		if host != r.domainAnchor && !strings.HasSuffix(host, "."+r.domainAnchor) {
			return false
		}
		if r.pattern == "" || r.pattern == "^" {
			return true
		}
		// remaining pattern must match somewhere after the host
		return r.patternMatch(req.URL, false)
	}
	return r.patternMatch(req.URL, r.leftAnchor)
}

// patternMatch checks the wildcard-split parts sequentially; '^' matches a
// separator character or the end of the URL.
func (r *Rule) patternMatch(url string, leftAnchor bool) bool {
	pos := 0
	for i, part := range r.parts {
		if part == "" {
			continue
		}
		var segs []string
		if r.sepParts != nil {
			segs = r.sepParts[i]
		}
		start, end := indexWithSep(url[pos:], part, segs)
		if start < 0 {
			return false
		}
		if leftAnchor && i == 0 && start != 0 {
			return false
		}
		pos += end
	}
	return true
}

// indexWithSep finds part in s treating '^' as a separator class, and
// returns where the match starts and ends: a '^' matching the end of s
// consumes nothing. start is -1 when part does not occur. segs is part
// split on '^' (nil when part has none), computed once per rule.
func indexWithSep(s, part string, segs []string) (start, end int) {
	if segs == nil {
		start = strings.Index(s, part)
		return start, start + len(part)
	}
	for start := 0; start <= len(s); start++ {
		if end, ok := matchAt(s, start, segs); ok {
			return start, end
		}
	}
	return -1, -1
}

// matchAt reports whether segs, joined by separators, match s at start,
// and where the match ends.
func matchAt(s string, start int, segs []string) (end int, ok bool) {
	pos := start
	for i, seg := range segs {
		if !strings.HasPrefix(s[pos:], seg) {
			return 0, false
		}
		pos += len(seg)
		if i < len(segs)-1 { // expect a separator here
			if pos >= len(s) {
				// '^' at end of URL matches end-of-input
				return pos, i == len(segs)-2 && segs[len(segs)-1] == ""
			}
			if !isSeparator(s[pos]) {
				return 0, false
			}
			pos++
		}
	}
	return pos, true
}

func isSeparator(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return false
	case b == '_' || b == '-' || b == '.' || b == '%':
		return false
	default:
		return true
	}
}

// List is a compiled set of rules with a domain index for fast matching.
type List struct {
	Name string

	byDomain map[string][]*Rule // domain-anchored rules
	generic  []*Rule            // everything else
	nRules   int
}

// Compile parses the lines of a filter list.
func Compile(name string, lines []string) *List {
	l := &List{Name: name, byDomain: make(map[string][]*Rule)}
	for _, line := range lines {
		r := ParseRule(line)
		if r == nil {
			continue
		}
		l.nRules++
		if r.domainAnchor != "" {
			l.byDomain[r.domainAnchor] = append(l.byDomain[r.domainAnchor], r)
		} else {
			l.generic = append(l.generic, r)
		}
	}
	return l
}

// Len returns the number of compiled rules.
func (l *List) Len() int { return l.nRules }

// scan visits every rule whose index could match the host, calling f
// until it returns false.
func (l *List) scan(host string, f func(*Rule) bool) {
	// walk domain labels: a.b.c -> a.b.c, b.c, c
	h := host
	for {
		for _, r := range l.byDomain[h] {
			if !f(r) {
				return
			}
		}
		i := strings.IndexByte(h, '.')
		if i < 0 {
			break
		}
		h = h[i+1:]
	}
	for _, r := range l.generic {
		if !f(r) {
			return
		}
	}
}

// Match returns the first matching rule, with exception rules taking
// precedence within this list: if any exception matches, Match returns
// (nil, false).
func (l *List) Match(req Request) (*Rule, bool) {
	host := strings.ToLower(urlutil.Hostname(req.URL))
	reqDomain := publicsuffix.RegistrableDomain(host)

	if l.MatchException(req) {
		return nil, false
	}
	var hit *Rule
	l.scan(host, func(r *Rule) bool {
		if r.Exception || !r.matches(req, host, reqDomain) {
			return true
		}
		hit = r
		return false
	})
	return hit, hit != nil
}

// MatchException reports whether an exception (@@) rule matches.
func (l *List) MatchException(req Request) bool {
	host := strings.ToLower(urlutil.Hostname(req.URL))
	reqDomain := publicsuffix.RegistrableDomain(host)
	excepted := false
	l.scan(host, func(r *Rule) bool {
		if r.Exception && r.matches(req, host, reqDomain) {
			excepted = true
			return false
		}
		return true
	})
	return excepted
}

// Classifier combines several lists, mirroring the paper's union of nine
// crowd-sourced lists. Exception rules apply across the whole union, as
// they do in a real adblocker: a whitelist entry in any list suppresses
// block rules from every list.
type Classifier struct {
	Lists []*List
}

// NewClassifier bundles lists.
func NewClassifier(lists ...*List) *Classifier { return &Classifier{Lists: lists} }

// IsTracker reports whether any list flags the URL as advertising or
// tracking, and which rule fired.
func (c *Classifier) IsTracker(req Request) (bool, *Rule) {
	for _, l := range c.Lists {
		if l.MatchException(req) {
			return false, nil
		}
	}
	for _, l := range c.Lists {
		if r, ok := l.Match(req); ok {
			return true, r
		}
	}
	return false, nil
}
