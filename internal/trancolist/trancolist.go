// Package trancolist provides the ranked site list of the crawl — the
// Universal Tranco list analogue (§4.2). It renders a generated web's
// sites as a rank,domain CSV and parses such lists back, so the crawl
// tooling consumes exactly the artifact shape the paper's pipeline did.
package trancolist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Entry is one ranked site.
type Entry struct {
	Rank   int
	Domain string
}

// Write renders entries as "rank,domain" lines.
func Write(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		if _, err := fmt.Fprintf(bw, "%d,%s\n", e.Rank, e.Domain); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a rank,domain CSV, tolerating blank lines and comments.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		i := strings.IndexByte(text, ',')
		if i < 0 {
			return nil, fmt.Errorf("trancolist: line %d: missing comma", line)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(text[:i]))
		if err != nil {
			return nil, fmt.Errorf("trancolist: line %d: bad rank: %w", line, err)
		}
		domain := strings.ToLower(strings.TrimSpace(text[i+1:]))
		if domain == "" {
			return nil, fmt.Errorf("trancolist: line %d: empty domain", line)
		}
		out = append(out, Entry{Rank: rank, Domain: domain})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Domains extracts the domains in rank order.
func Domains(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Domain
	}
	return out
}
