package analysis

import (
	"sort"

	"cookieguard/internal/instrument"
	"cookieguard/internal/stats"
)

// Table1Row is one row of Table 1: the prevalence of a cross-domain
// action for one cookie API. The JSON shape is stable: served by
// cookieguard.Server on /v1/tables/actions.
type Table1Row struct {
	API           instrument.API `json:"api"`
	Action        ActionKind     `json:"action"`
	PctOfWebsites float64        `json:"pct_of_websites"`
	PctOfCookies  float64        `json:"pct_of_cookies"`
	CookieCount   int            `json:"cookie_count"`
}

// Table1 computes the prevalence of cross-domain cookie actions across
// websites and affected unique cookie pairs.
func (r *Results) Table1() []Table1Row {
	apis := []instrument.API{instrument.APIDocument, instrument.APICookieStore}
	actions := []ActionKind{ActExfiltration, ActOverwriting, ActDeleting}

	// Pair denominators per API (document.cookie pairs include HTTP-set
	// cookies: they live in the same jar and are script-readable).
	pairTotals := map[instrument.API]int{}
	for _, p := range r.Pairs {
		api := p.API
		if api == instrument.APIHTTP {
			api = instrument.APIDocument
		}
		pairTotals[api]++
	}

	// Affected pairs per (api, action).
	type aaKey struct {
		api instrument.API
		act ActionKind
	}
	affected := map[aaKey]int{}
	for _, p := range r.Pairs {
		api := p.API
		if api == instrument.APIHTTP {
			api = instrument.APIDocument
		}
		if len(p.ExfilDomains) > 0 {
			affected[aaKey{api, ActExfiltration}]++
		}
		if len(p.OverwriterDomains) > 0 {
			affected[aaKey{api, ActOverwriting}]++
		}
		if len(p.DeleterDomains) > 0 {
			affected[aaKey{api, ActDeleting}]++
		}
	}

	// Site counts per (api, action): normalize APIs per site first so a
	// site acting on both an HTTP-set and a script-set cookie counts
	// once for document.cookie.
	siteCounts := map[aaKey]int{}
	for _, rec := range r.sites {
		norm := map[aaKey]bool{}
		for k := range rec.actions {
			api := k.API
			if api == instrument.APIHTTP {
				api = instrument.APIDocument
			}
			norm[aaKey{api, k.Kind}] = true
		}
		for k := range norm {
			siteCounts[k]++
		}
	}

	var rows []Table1Row
	for _, api := range apis {
		for _, act := range actions {
			k := aaKey{api, act}
			rows = append(rows, Table1Row{
				API:           api,
				Action:        act,
				PctOfWebsites: stats.Percent(siteCounts[k], r.Summary.SitesComplete),
				PctOfCookies:  stats.Percent(affected[k], pairTotals[api]),
				CookieCount:   affected[k],
			})
		}
	}
	return rows
}

// Table2Row is one row of Table 2: a frequently exfiltrated cookie pair.
type Table2Row struct {
	Cookie           CookieKey
	ExfilEntities    int
	DestEntities     int
	TopExfilEntities []string
	TopDestEntities  []string
}

// Table2 returns the top-k exfiltrated cookie pairs sorted by the number
// of destination entities (the paper's ordering).
func (r *Results) Table2(k int) []Table2Row {
	pairs := SortedPairs(r.Pairs, func(p *PairInfo) int { return len(p.DestEntities) })
	var rows []Table2Row
	for _, p := range pairs {
		if len(p.ExfilDomains) == 0 {
			continue
		}
		rows = append(rows, Table2Row{
			Cookie:           p.Key,
			ExfilEntities:    len(p.ExfilEntities),
			DestEntities:     len(p.DestEntities),
			TopExfilEntities: TopEntities(p.ExfilEntities, 3),
			TopDestEntities:  TopEntities(p.DestEntities, 3),
		})
		if len(rows) == k {
			break
		}
	}
	return rows
}

// DomainCount pairs a script domain with a unique-cookie count (Figures 2
// and 8).
type DomainCount struct {
	Domain     string
	Cookies    int
	PctOfPairs float64
}

// topDomains inverts pair→domains into domain→pair counts.
func (r *Results) topDomains(k int, domainsOf func(*PairInfo) map[string]bool) []DomainCount {
	counts := map[string]int{}
	for _, p := range r.Pairs {
		for d := range domainsOf(p) {
			counts[d]++
		}
	}
	out := make([]DomainCount, 0, len(counts))
	total := len(r.Pairs)
	for d, c := range counts {
		out = append(out, DomainCount{Domain: d, Cookies: c, PctOfPairs: stats.Percent(c, total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cookies != out[j].Cookies {
			return out[i].Cookies > out[j].Cookies
		}
		return out[i].Domain < out[j].Domain
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Fig2TopExfiltrators returns the top-k script domains by unique cookies
// exfiltrated (Figure 2).
func (r *Results) Fig2TopExfiltrators(k int) []DomainCount {
	return r.topDomains(k, func(p *PairInfo) map[string]bool { return p.ExfilDomains })
}

// Fig8TopOverwriters returns the top-k overwriting domains (Figure 8a).
func (r *Results) Fig8TopOverwriters(k int) []DomainCount {
	return r.topDomains(k, func(p *PairInfo) map[string]bool { return p.OverwriterDomains })
}

// Fig8TopDeleters returns the top-k deleting domains (Figure 8b).
func (r *Results) Fig8TopDeleters(k int) []DomainCount {
	return r.topDomains(k, func(p *PairInfo) map[string]bool { return p.DeleterDomains })
}

// Table5Row is one row of Table 5: a frequently manipulated cookie pair.
type Table5Row struct {
	Manipulation ActionKind
	Cookie       CookieKey
	Entities     int
	TopEntities  []string
}

// Table5 returns the top-k overwritten and top-k deleted cookie pairs.
func (r *Results) Table5(k int) []Table5Row {
	var rows []Table5Row
	ow := SortedPairs(r.Pairs, func(p *PairInfo) int { return len(p.OverwriterEnt) })
	for _, p := range ow {
		if len(p.OverwriterEnt) == 0 || len(rows) >= k {
			break
		}
		rows = append(rows, Table5Row{
			Manipulation: ActOverwriting, Cookie: p.Key,
			Entities:    len(p.OverwriterEnt),
			TopEntities: TopEntities(p.OverwriterEnt, 3),
		})
	}
	n := len(rows)
	del := SortedPairs(r.Pairs, func(p *PairInfo) int { return len(p.DeleterEnt) })
	for _, p := range del {
		if len(p.DeleterEnt) == 0 || len(rows) >= n+k {
			break
		}
		rows = append(rows, Table5Row{
			Manipulation: ActDeleting, Cookie: p.Key,
			Entities:    len(p.DeleterEnt),
			TopEntities: TopEntities(p.DeleterEnt, 3),
		})
	}
	return rows
}

// OverwriteAttrStats reports the share of overwrite events that changed
// each cookie attribute (§5.5: value 85.3%, expires 69.4%, domain 6.0%,
// path 1.2%).
type OverwriteAttrStats struct {
	Events     int
	PctValue   float64
	PctExpires float64
	PctDomain  float64
	PctPath    float64
}

// OverwriteAttrs computes the attribute-change distribution.
func (r *Results) OverwriteAttrs() OverwriteAttrStats {
	var s OverwriteAttrStats
	var val, exp, dom, path int
	for _, rec := range r.sites {
		for _, e := range rec.events {
			if e.Kind != ActOverwriting {
				continue
			}
			s.Events++
			if e.ChangedValue {
				val++
			}
			if e.ChangedExpires {
				exp++
			}
			if e.ChangedDomain {
				dom++
			}
			if e.ChangedPath {
				path++
			}
		}
	}
	s.PctValue = stats.Percent(val, s.Events)
	s.PctExpires = stats.Percent(exp, s.Events)
	s.PctDomain = stats.Percent(dom, s.Events)
	s.PctPath = stats.Percent(path, s.Events)
	return s
}

// FailureRow is one row of the crawl failure table: a failure class at
// one scope ("visit" = fatal landing failures, "request" = degraded
// subresource/script/frame/beacon fetches).
type FailureRow struct {
	Scope string `json:"scope"`
	Class string `json:"class"`
	Count int    `json:"count"`
}

// FailureTable flattens the failure rollup into deterministic rows:
// visit-scope classes first, then request-scope, each sorted by class
// name so repeated runs over the same logs render identically.
func (r *Results) FailureTable() []FailureRow {
	var rows []FailureRow
	appendScope := func(scope string, counts map[string]int) {
		classes := make([]string, 0, len(counts))
		for c := range counts {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			rows = append(rows, FailureRow{Scope: scope, Class: c, Count: counts[c]})
		}
	}
	appendScope("visit", r.Failures.VisitFailures)
	appendScope("request", r.Failures.RequestFailures)
	return rows
}

// VantageRow is one row of the per-vantage comparison table: a vantage
// point's retention and load-event latency tail (the Figure 6
// comparison across regions).
type VantageRow struct {
	Vantage string `json:"vantage"`
	VantageStats
}

// VantageTable flattens the per-vantage rollup into rows sorted by
// vantage name (the default vantage, keyed "", sorts first and renders
// as "(default)").
func (r *Results) VantageTable() []VantageRow {
	names := make([]string, 0, len(r.Vantages))
	for n := range r.Vantages {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]VantageRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, VantageRow{Vantage: n, VantageStats: r.Vantages[n]})
	}
	return rows
}

// PersonaRow is one row of the per-persona comparison table: a consent
// persona's retention and the tracking its consent state admitted —
// the accept vs reject vs dismiss delta in retained third-party
// cookies and exfiltration.
type PersonaRow struct {
	Persona string `json:"persona"`
	PersonaStats
}

// PersonaTable flattens the per-persona rollup into rows sorted by
// persona name (the implicit persona-free crawl, keyed "", sorts first
// and renders as "(none)").
func (r *Results) PersonaTable() []PersonaRow {
	names := make([]string, 0, len(r.Personas))
	for n := range r.Personas {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]PersonaRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, PersonaRow{Persona: n, PersonaStats: r.Personas[n]})
	}
	return rows
}

// SitePct returns the percentage of complete sites exhibiting an action
// on document.cookie-visible cookies (Figure 5's bars).
func (r *Results) SitePct(kind ActionKind) float64 {
	n := 0
	for _, rec := range r.sites {
		hit := false
		for k := range rec.actions {
			if k.Kind == kind {
				hit = true
				break
			}
		}
		if hit {
			n++
		}
	}
	return stats.Percent(n, r.Summary.SitesComplete)
}
