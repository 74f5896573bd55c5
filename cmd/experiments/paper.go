package main

import (
	"math"
	"slices"

	"cookieguard/internal/analysis"
	"cookieguard/internal/breakage"
	"cookieguard/internal/instrument"
	"cookieguard/internal/perf"
	"cookieguard/internal/report"
	"cookieguard/internal/stats"
)

// The paper's scale, which the flags' help cites.
const (
	paperSites         = 20000 // sites crawled (Sec. 4.2)
	paperPerfSites     = 10000 // sites timed for the performance evaluation (Sec. 7.3)
	paperBreakageSites = 100   // sites assessed for breakage (Table 3)
)

// measured holds the results of one run that the paper's values are
// compared with.
type measured struct {
	res, guarded *analysis.Results // the measurement crawl and the guarded re-crawl
	table3       map[breakage.Condition]breakage.Table3
	perf         *perf.Results
}

// paperRow is one value the paper reports and how a run measures it.
type paperRow struct {
	source, name string
	paper        float64
	unit         string
	measure      func(*measured) float64
}

// paperRows is every value of the paper that the reproduction is
// compared with, each written here once. Table 3's "functionality
// 3%+3%" reads as 3% minor and 3% major under the strict guard.
var paperRows = slices.Concat([]paperRow{
	{"Sec. 4.2", "complete sites", 100.0 * 14917 / paperSites, "% of crawled", func(m *measured) float64 { return stats.Percent(m.res.Summary.SitesComplete, m.res.Summary.SitesTotal) }},
	{"Sec. 5-8", "sites with >=1 third-party script", 93.3, "%", sitesPct(func(s analysis.Summary) int { return s.SitesWithThirdParty })},
	{"Sec. 5-8", "mean distinct third-party scripts per site", 19, "scripts", func(m *measured) float64 { return m.res.Summary.MeanTPScriptsPerSite }},
	{"Sec. 5-8", "third-party scripts that are ad/tracking", 70, "%", func(m *measured) float64 { return 100 * m.res.Summary.TrackerScriptShare }},
	{"Sec. 5-8", "third-party cookies set per site", 15, "cookies", func(m *measured) float64 { return m.res.Summary.MeanTPCookiesPerSite }},
	{"Sec. 5-8", "first-party cookies set per site", 4, "cookies", func(m *measured) float64 { return m.res.Summary.MeanFPCookiesPerSite }},
	{"Sec. 5-8", "sites invoking document.cookie", 96.3, "%", sitesPct(func(s analysis.Summary) int { return s.SitesUsingDocCookie })},
	{"Sec. 5-8", "sites using cookieStore API", 2.8, "%", sitesPct(func(s analysis.Summary) int { return s.SitesUsingCookieStore })},
	{"Sec. 5-8", "indirect:direct inclusion ratio", 2.5, "x", func(m *measured) float64 {
		if s := m.res.Summary; s.DirectScripts > 0 {
			return float64(s.IndirectScripts) / float64(s.DirectScripts)
		}
		return 0
	}},
	{"Sec. 5-8", "cross-domain DOM modification sites", 9.4, "%", sitesPct(func(s analysis.Summary) int { return s.SitesWithCrossDomainDOM })},
}, table1Rows(), []paperRow{
	{"Figure 2", "googletagmanager.com's share of cookie pairs", 3.29, "%", func(m *measured) float64 {
		domains := m.res.Fig2TopExfiltrators(math.MaxInt)
		if i := slices.IndexFunc(domains, func(d analysis.DomainCount) bool { return d.Domain == "googletagmanager.com" }); i >= 0 {
			return domains[i].PctOfPairs
		}
		return 0
	}},
	{"Sec. 5.5", "overwrites changing value", 85.3, "%", func(m *measured) float64 { return m.res.OverwriteAttrs().PctValue }},
	{"Sec. 5.5", "overwrites changing expires", 69.4, "%", func(m *measured) float64 { return m.res.OverwriteAttrs().PctExpires }},
	{"Sec. 5.5", "overwrites changing domain", 6.0, "%", func(m *measured) float64 { return m.res.OverwriteAttrs().PctDomain }},
	{"Sec. 5.5", "overwrites changing path", 1.2, "%", func(m *measured) float64 { return m.res.OverwriteAttrs().PctPath }},
	{"Figure 5", "guard's reduction of overwriting sites", 82.2, "%", reductionOf(analysis.ActOverwriting)},
	{"Figure 5", "guard's reduction of deleting sites", 86.2, "%", reductionOf(analysis.ActDeleting)},
	{"Figure 5", "guard's reduction of exfiltrating sites", 83.2, "%", reductionOf(analysis.ActExfiltration)},
	{"Table 3", "strict guard: major SSO breakage", 11, "% of sites", breakagePct(breakage.SSO, breakage.Major)},
	{"Table 3", "strict guard: minor functionality breakage", 3, "% of sites", breakagePct(breakage.Functionality, breakage.Minor)},
	{"Table 3", "strict guard: major functionality breakage", 3, "% of sites", breakagePct(breakage.Functionality, breakage.Major)},
	{"Sec. 7.2", "entity whitelist: sites with any breakage", 3, "% of sites", func(m *measured) float64 { return m.table3[breakage.GuardWhitelist].AnyPct }},
	{"Sec. 7.3", "mean LoadEvent overhead", 300, "ms", func(m *measured) float64 { return m.perf.MeanOverheadMS() }},
}, fig7Rows(1.11))

// sitesPct measures a count of complete sites as a percent of them.
func sitesPct(count func(analysis.Summary) int) func(*measured) float64 {
	return func(m *measured) float64 { return stats.Percent(count(m.res.Summary), m.res.Summary.SitesComplete) }
}

// table1Rows turns the paper's Table 1, the percent of websites and of
// cookies with each cross-domain action through each cookie API, into
// two rows per (API, action).
func table1Rows() []paperRow {
	var rows []paperRow
	for _, p := range []struct {
		api            instrument.API
		action         analysis.ActionKind
		sites, cookies float64
	}{
		{instrument.APIDocument, analysis.ActExfiltration, 55.7, 5.9},
		{instrument.APIDocument, analysis.ActOverwriting, 31.5, 2.7},
		{instrument.APIDocument, analysis.ActDeleting, 6.3, 1.8},
		{instrument.APICookieStore, analysis.ActExfiltration, 0.7, 16.3},
		{instrument.APICookieStore, analysis.ActOverwriting, 0, 0},
		{instrument.APICookieStore, analysis.ActDeleting, 0, 0},
	} {
		// Table1 has a row for every (API, action), so the lookup finds one.
		row := func(m *measured) analysis.Table1Row {
			rows := m.res.Table1()
			return rows[slices.IndexFunc(rows, func(r analysis.Table1Row) bool { return r.API == p.api && r.Action == p.action })]
		}
		name := string(p.api) + " " + string(p.action)
		rows = append(rows,
			paperRow{"Table 1", name + ": websites", p.sites, "%", func(m *measured) float64 { return row(m).PctOfWebsites }},
			paperRow{"Table 1", name + ": cookies", p.cookies, "%", func(m *measured) float64 { return row(m).PctOfCookies }})
	}
	return rows
}

// fig7Rows compares each metric's median overhead ratio with the one
// ratio the paper reports.
func fig7Rows(paper float64) []paperRow {
	rows := make([]paperRow, len(perf.Metrics))
	for i, metric := range perf.Metrics {
		rows[i] = paperRow{"Figure 7", "median overhead ratio, " + string(metric), paper, "x", func(m *measured) float64 {
			_, _, median := m.perf.Fig7(metric)
			return median
		}}
	}
	return rows
}

// reductionOf measures how far the guard cuts the share of sites with
// an action, in percent of the unguarded share (Figure 5).
func reductionOf(act analysis.ActionKind) func(*measured) float64 {
	return func(m *measured) float64 { return reduction(m.res.SitePct(act), m.guarded.SitePct(act)) }
}

func reduction(before, after float64) float64 {
	if before > 0 {
		return 100 * (before - after) / before
	}
	return 0
}

// breakagePct measures one Table 3 cell under the strict guard.
func breakagePct(cat breakage.Category, sev breakage.Severity) func(*measured) float64 {
	return func(m *measured) float64 { return m.table3[breakage.GuardStrict].Pct[cat][sev] }
}

// compare measures every paper row on one run's results.
func compare(m *measured) []report.PaperRow {
	rows := make([]report.PaperRow, len(paperRows))
	for i, r := range paperRows {
		rows[i] = report.PaperRow{Source: r.source, Name: r.name, Paper: r.paper, Measured: r.measure(m), Unit: r.unit}
	}
	return rows
}
