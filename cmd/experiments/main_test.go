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
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	cfg := registerFlags(fs)
	if err := fs.Parse([]string{"-sites", "60", "-perf", "10", "-breakage", "5", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	before, table, ok := strings.Cut(buf.String(), "Paper vs measured\n")
	if !ok {
		t.Fatalf("no paper-vs-measured table in:\n%s", buf.String())
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
