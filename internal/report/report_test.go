package report

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cookieguard/internal/analysis"
	"cookieguard/internal/breakage"
	"cookieguard/internal/instrument"
	"cookieguard/internal/perf"
	"cookieguard/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, []string{"name", "count"}, [][]string{
		{"googletagmanager.com", "330"},
		{"x", "1"},
	})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "count") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatalf("separator = %q", lines[1])
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	Bar(&buf, "Figure X", []analysis.DomainCount{
		{Domain: "a.example", Cookies: 40, PctOfPairs: 4},
		{Domain: "b.example", Cookies: 10, PctOfPairs: 1},
	})
	out := buf.String()
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "a.example") {
		t.Fatalf("output = %q", out)
	}
	// The larger bar must be longer.
	aHashes := strings.Count(strings.Split(out, "\n")[1], "#")
	bHashes := strings.Count(strings.Split(out, "\n")[2], "#")
	if aHashes <= bHashes {
		t.Fatalf("bar lengths: a=%d b=%d", aHashes, bHashes)
	}
}

func TestBoxplotLine(t *testing.T) {
	var buf bytes.Buffer
	Boxplot(&buf, "label", stats.NewBoxplot([]float64{1, 2, 3, 4, 100}))
	if !strings.Contains(buf.String(), "med=") || !strings.Contains(buf.String(), "n=5") {
		t.Fatalf("output = %q", buf.String())
	}
}

func TestTableRenderers(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, []analysis.Table1Row{
		{API: instrument.APIDocument, Action: analysis.ActExfiltration, PctOfWebsites: 55.7, PctOfCookies: 5.9, CookieCount: 4825},
	})
	Table2(&buf, []analysis.Table2Row{
		{Cookie: analysis.CookieKey{Name: "_ga", Owner: "googletagmanager.com"},
			ExfilEntities: 1191, DestEntities: 664,
			TopExfilEntities: []string{"Microsoft", "Yandex"}, TopDestEntities: []string{"HubSpot"}},
	})
	Table5(&buf, []analysis.Table5Row{
		{Manipulation: analysis.ActOverwriting, Cookie: analysis.CookieKey{Name: "_fbp", Owner: "facebook.net"},
			Entities: 132, TopEntities: []string{"Google"}},
	})
	Table3(&buf, breakage.Table3{
		Condition: breakage.GuardStrict, Sites: 100,
		Pct: map[breakage.Category]map[breakage.Severity]float64{
			breakage.Navigation:    {breakage.Minor: 0, breakage.Major: 0},
			breakage.SSO:           {breakage.Minor: 1, breakage.Major: 11},
			breakage.Appearance:    {breakage.Minor: 0, breakage.Major: 0},
			breakage.Functionality: {breakage.Minor: 3, breakage.Major: 3},
		},
	})
	Table4(&buf, []perf.Table4Row{
		{Metric: perf.LoadEvent, NormalMean: 3197, NormalMedian: 2008, GuardedMean: 3635, GuardedMedian: 2136},
	})

	out := buf.String()
	for _, want := range []string{
		"Table 1", "55.7", "4825",
		"Table 2", "_ga", "1191",
		"Table 5", "_fbp", "132",
		"Table 3", "11%",
		"Table 4", "3197 ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestPaperTable(t *testing.T) {
	var buf bytes.Buffer
	PaperTable(&buf, []PaperRow{
		{Source: "Table 1", Name: "exfiltrating websites", Paper: 55.7, Measured: 58.43, Unit: "%"},
		{Source: "Figure 7", Name: "median overhead ratio", Paper: 1.11, Measured: 1.0874, Unit: "x"},
		{Source: "Sec. 5", Name: "first-party cookies per site", Paper: 4, Measured: 6.06, Unit: "cookies"},
	})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3+3 || lines[0] != "Paper vs measured" {
		t.Fatalf("output = %q", buf.String())
	}
	// Each measured value has its paper value's decimals, at least one.
	for i, want := range [][]string{
		{"Table 1", "exfiltrating websites", "55.7", "58.4", "%"},
		{"Figure 7", "median overhead ratio", "1.11", "1.09", "x"},
		{"Sec. 5", "first-party cookies per site", "4", "6.1", "cookies"},
	} {
		if got := regexp.MustCompile(`  +`).Split(lines[3+i], -1); !slices.Equal(got, want) {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
}
