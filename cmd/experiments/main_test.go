package main

import (
	"bytes"
	"context"
	"flag"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPaperTable runs a small evaluation and checks its closing table:
// one line per paper row, each with the row's paper value and a finite
// measured value, and no paper value printed anywhere else.
func TestPaperTable(t *testing.T) {
	out := runSmall(t)
	before, table, ok := strings.Cut(out, "Paper vs measured\n")
	if !ok {
		t.Fatalf("no paper-vs-measured table in:\n%s", out)
	}
	if strings.Contains(strings.ToLower(before), "paper") {
		t.Errorf("paper text printed outside the table:\n%s", before)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 2+len(paperRows) {
		t.Fatalf("table has %d lines, want a header, a separator and %d rows:\n%s", len(lines), len(paperRows), table)
	}
	cells := regexp.MustCompile(`  +`)
	for i, r := range paperRows {
		got := cells.Split(lines[2+i], -1)
		if len(got) != 5 || got[0] != r.source || got[1] != r.name || got[4] != r.unit {
			t.Errorf("row %d = %q, want %s / %s / %s", i, got, r.source, r.name, r.unit)
			continue
		}
		if paper, err := strconv.ParseFloat(got[2], 64); err != nil || paper != r.paper {
			t.Errorf("%s: paper value %q, want %v", r.name, got[2], r.paper)
		}
		if v, err := strconv.ParseFloat(got[3], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: measured value %q is not finite", r.name, got[3])
		}
	}
}

// TestCheckpointRerun: a checkpointed evaluation runs to the end, and a
// rerun over its journal replays every unit and prints the same report.
// The guarded re-crawl must not share the study's journal, whose
// fingerprint is the unguarded configuration's.
func TestCheckpointRerun(t *testing.T) {
	dir := t.TempDir()
	first := runSmall(t, "-checkpoint", dir)
	if !strings.Contains(first, "Paper vs measured\n") {
		t.Fatalf("the checkpointed run stopped before the paper table:\n%s", first)
	}
	second := runSmall(t, "-checkpoint", dir)
	if !strings.Contains(second, "(60 units replayed from a prior run)") {
		t.Fatalf("the rerun did not replay all 60 units:\n%s", second)
	}
	if a, b := stableLines(first), stableLines(second); a != b {
		t.Fatalf("the rerun's report differs\nfirst:\n%s\nrerun:\n%s", a, b)
	}
}

// TestVantageAndPersonaTables: a run over two vantages and two personas
// prints the per-vantage and per-persona tables, each with its header and
// one row per name, every row counting its 60 sites once per name of the
// other list.
func TestVantageAndPersonaTables(t *testing.T) {
	out := runSmall(t, "-vantages", "eu-west,us-east", "-personas", "accept,reject")
	for _, tc := range []struct {
		title, header string
		names         []string
	}{
		{"Per-vantage retention and load-event latency tail",
			"vantage  visits  complete  failed  load mean  p50  p90  p99  max", []string{"eu-west", "us-east"}},
		{"Per-persona consent deltas (retention and tracking)",
			"persona  visits  complete  failed  tp cookies  exfil events  exfil pairs", []string{"accept", "reject"}},
	} {
		_, table, ok := strings.Cut(out, tc.title+"\n")
		if !ok {
			t.Errorf("no %q table in:\n%s", tc.title, out)
			continue
		}
		lines := strings.Split(table, "\n")
		if got := strings.Join(strings.Fields(lines[0]), " "); got != strings.Join(strings.Fields(tc.header), " ") {
			t.Errorf("%s: header %q, want %q", tc.title, lines[0], tc.header)
		}
		for i, name := range tc.names {
			row := strings.Fields(lines[2+i])
			if len(row) < 2 || row[0] != name || row[1] != "120" {
				t.Errorf("%s: row %d = %q, want %s with 120 visits", tc.title, i, lines[2+i], name)
			}
		}
		if next := lines[2+len(tc.names)]; next != "" {
			t.Errorf("%s: extra row %q", tc.title, next)
		}
	}
}

// runSmall runs a 60-site evaluation with extra flags and returns its
// output.
func runSmall(t *testing.T, extra ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	cfg := registerFlags(fs)
	args := append([]string{"-sites", "60", "-perf", "10", "-breakage", "5", "-workers", "2"}, extra...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// stableLines drops the lines that vary between equal runs: the
// throughput line's timings and the journal's counters.
func stableLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "throughput ") && !strings.HasPrefix(line, "checkpoint journal: ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}
