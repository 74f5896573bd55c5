// Package report renders the reproduction's tables and figures as text:
// aligned tables for Tables 1/2/3/4/5, ASCII bar charts for Figures 2/8,
// boxplot summaries for Figures 6/9/10, the §5 measurement report that
// cmd/experiments and cmd/analyze share, and the one paper-vs-measured
// table cmd/experiments ends with.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"cookieguard/internal/analysis"
	"cookieguard/internal/breakage"
	"cookieguard/internal/perf"
	"cookieguard/internal/stats"
)

// Table writes rows as an aligned text table.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar renders a horizontal ASCII bar chart (Figures 2 and 8).
func Bar(w io.Writer, title string, items []analysis.DomainCount) {
	fmt.Fprintln(w, title)
	maxV := 1
	maxLabel := 0
	for _, it := range items {
		if it.Cookies > maxV {
			maxV = it.Cookies
		}
		if len(it.Domain) > maxLabel {
			maxLabel = len(it.Domain)
		}
	}
	const width = 40
	for _, it := range items {
		n := it.Cookies * width / maxV
		fmt.Fprintf(w, "  %s %s %d (%.2f%%)\n",
			pad(it.Domain, maxLabel), strings.Repeat("#", n), it.Cookies, it.PctOfPairs)
	}
}

// Boxplot renders one boxplot summary line (Figures 6/7/9/10).
func Boxplot(w io.Writer, label string, b stats.Boxplot) {
	fmt.Fprintf(w, "  %-28s n=%-6d min=%-9.1f q1=%-9.1f med=%-9.1f q3=%-9.1f max=%-9.1f outliers=%d/%d\n",
		label, b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.LowOutliers, b.HighOutliers)
}

// Table1 renders Table 1.
func Table1(w io.Writer, rows []analysis.Table1Row) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.API), string(r.Action),
			fmt.Sprintf("%.1f", r.PctOfWebsites),
			fmt.Sprintf("%.1f (%d)", r.PctOfCookies, r.CookieCount),
		})
	}
	fmt.Fprintln(w, "Table 1: Prevalence of cross-domain cookie actions")
	Table(w, []string{"cookie type", "action", "% of websites", "% of cookies (no.)"}, out)
}

// Failures renders the crawl failure table: the taxonomy rollup of
// fatal visit failures and degraded (recorded, not aborted) request
// failures, plus the retry totals.
func Failures(w io.Writer, s analysis.FailureStats, rows []analysis.FailureRow) {
	fmt.Fprintf(w, "Failure table: %d visits failed, %d degraded; %d failed requests, %d retries\n",
		s.VisitsFailed, s.VisitsDegraded, s.RequestsFailed, s.Retries)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Scope, r.Class, fmt.Sprintf("%d", r.Count)})
	}
	Table(w, []string{"scope", "class", "count"}, out)
}

// Vantages renders the per-vantage comparison table: retention and the
// load-event latency tail of each vantage point over one frozen web
// (the Figure 6 comparison across regions).
func Vantages(w io.Writer, rows []analysis.VantageRow) {
	fmt.Fprintln(w, "Per-vantage retention and load-event latency tail")
	var out [][]string
	for _, r := range rows {
		name := r.Vantage
		if name == "" {
			name = "(default)"
		}
		out = append(out, []string{
			name,
			fmt.Sprintf("%d", r.Visits),
			fmt.Sprintf("%d", r.Complete),
			fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%.0f", r.LoadMeanMs),
			fmt.Sprintf("%.0f", r.LoadP50Ms),
			fmt.Sprintf("%.0f", r.LoadP90Ms),
			fmt.Sprintf("%.0f", r.LoadP99Ms),
			fmt.Sprintf("%.0f", r.LoadMaxMs),
		})
	}
	Table(w, []string{"vantage", "visits", "complete", "failed",
		"load mean", "p50", "p90", "p99", "max"}, out)
}

// Personas renders the per-persona comparison table: each consent
// persona's retention and the tracking its consent state admitted —
// the accept vs reject vs dismiss delta in third-party cookies and
// exfiltration.
func Personas(w io.Writer, rows []analysis.PersonaRow) {
	fmt.Fprintln(w, "Per-persona consent deltas (retention and tracking)")
	var out [][]string
	for _, r := range rows {
		name := r.Persona
		if name == "" {
			name = "(none)"
		}
		out = append(out, []string{
			name,
			fmt.Sprintf("%d", r.Visits),
			fmt.Sprintf("%d", r.Complete),
			fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.TPCookies),
			fmt.Sprintf("%d", r.ExfilEvents),
			fmt.Sprintf("%d", r.ExfilPairs),
		})
	}
	Table(w, []string{"persona", "visits", "complete", "failed",
		"tp cookies", "exfil events", "exfil pairs"}, out)
}

// Table2 renders Table 2.
func Table2(w io.Writer, rows []analysis.Table2Row) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Cookie.Name, r.Cookie.Owner,
			fmt.Sprintf("%d", r.ExfilEntities),
			fmt.Sprintf("%d", r.DestEntities),
			strings.Join(r.TopExfilEntities, ", "),
			strings.Join(r.TopDestEntities, ", "),
		})
	}
	fmt.Fprintln(w, "Table 2: Most frequently exfiltrated cookies")
	Table(w, []string{"cookie", "owner domain", "#exfil ent", "#dest ent", "top exfiltrators", "top destinations"}, out)
}

// Table5 renders Table 5.
func Table5(w io.Writer, rows []analysis.Table5Row) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.Manipulation), r.Cookie.Name, r.Cookie.Owner,
			fmt.Sprintf("%d", r.Entities),
			strings.Join(r.TopEntities, ", "),
		})
	}
	fmt.Fprintln(w, "Table 5: Frequently overwritten and deleted cookies")
	Table(w, []string{"type", "cookie", "creator domain", "#entities", "top manipulators"}, out)
}

// Table3 renders the breakage table.
func Table3(w io.Writer, t breakage.Table3) {
	cats := []breakage.Category{breakage.Navigation, breakage.SSO, breakage.Appearance, breakage.Functionality}
	var minor, major []string
	for _, c := range cats {
		minor = append(minor, fmt.Sprintf("%.0f%%", t.Pct[c][breakage.Minor]))
		major = append(major, fmt.Sprintf("%.0f%%", t.Pct[c][breakage.Major]))
	}
	fmt.Fprintf(w, "Table 3: Breakage under %s (%d sites)\n", t.Condition, t.Sites)
	Table(w, []string{"severity", "navigation", "sso", "appearance", "functionality"},
		[][]string{
			append([]string{"minor"}, minor...),
			append([]string{"major"}, major...),
		})
}

// Table4 renders the performance table.
func Table4(w io.Writer, rows []perf.Table4Row) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.Metric),
			fmt.Sprintf("%.0f ms, %.0f ms", r.NormalMean, r.NormalMedian),
			fmt.Sprintf("%.0f ms, %.0f ms", r.GuardedMean, r.GuardedMedian),
		})
	}
	fmt.Fprintln(w, "Table 4: Page-load performance (mean, median)")
	Table(w, []string{"metric", "normal", "cookieguard"}, out)
}

// Measurement renders the §5 measurement report of a crawl's results.
// The failure table prints when any visit failed or degraded, and the
// per-vantage and per-persona tables when there is more than one row
// to compare; Tables 1, 2 and 5 and Figures 2, 8a and 8b always print.
func Measurement(w io.Writer, res *analysis.Results) {
	if f := res.Failures; f.VisitsFailed+f.VisitsDegraded > 0 {
		Failures(w, f, res.FailureTable())
		fmt.Fprintln(w)
	}
	if rows := res.VantageTable(); len(rows) > 1 {
		Vantages(w, rows)
		fmt.Fprintln(w)
	}
	if rows := res.PersonaTable(); len(rows) > 1 {
		Personas(w, rows)
		fmt.Fprintln(w)
	}
	Table1(w, res.Table1())
	fmt.Fprintln(w)
	Table2(w, res.Table2(20))
	fmt.Fprintln(w)
	Bar(w, "Figure 2: top 20 exfiltrator script domains (unique cookies)", res.Fig2TopExfiltrators(20))
	fmt.Fprintln(w)
	Table5(w, res.Table5(10))
	fmt.Fprintln(w)
	Bar(w, "Figure 8a: top overwriting domains", res.Fig8TopOverwriters(20))
	fmt.Fprintln(w)
	Bar(w, "Figure 8b: top deleting domains", res.Fig8TopDeleters(20))
	fmt.Fprintln(w)
}

// PaperRow is one value the paper reports beside the reproduction's
// measurement of it.
type PaperRow struct {
	Source   string // the paper's table, figure or section
	Name     string
	Paper    float64
	Measured float64
	Unit     string
}

// PaperTable renders rows as one aligned paper-vs-measured table. Each
// measured value is printed to its paper value's precision, with at
// least one decimal.
func PaperTable(w io.Writer, rows []PaperRow) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		paper := strconv.FormatFloat(r.Paper, 'f', -1, 64)
		_, decimals, _ := strings.Cut(paper, ".")
		out[i] = []string{r.Source, r.Name, paper, strconv.FormatFloat(r.Measured, 'f', max(1, len(decimals)), 64), r.Unit}
	}
	fmt.Fprintln(w, "Paper vs measured")
	Table(w, []string{"source", "value", "paper", "measured", "unit"}, out)
}
