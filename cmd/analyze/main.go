// Command analyze runs the §4.4 analysis framework over JSONL visit logs
// produced by cmd/crawl, printing a few headline counts and the §5
// measurement report cmd/experiments prints (report.Measurement). Logs
// are folded into the analyzer one line at a time (Observe/Finalize), so
// the input never needs to fit in memory.
//
// The log's header (instrument.LogHeader) names the web it was crawled
// from. analyze rebuilds that web and folds with Pipeline.NewAnalyzer,
// so it prints the report the crawl's own pipeline folds:
// cmd/experiments -crawl-only's, from "Table 1:" on. A log without a
// header, as cmd/crawl wrote before it wrote one, folds with the default
// entity map, and analyze says so on stderr. A header that does not
// parse is an error.
//
// Usage:
//
//	analyze [-in logs.jsonl]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cookieguard"
	"cookieguard/internal/analysis"
	"cookieguard/internal/filterlist"
	"cookieguard/internal/instrument"
	"cookieguard/internal/report"
)

func main() {
	inPath := flag.String("in", "-", "input JSONL path (- = stdin)")
	flag.Parse()

	in := os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		fatal(err)
		defer f.Close()
		in = f
	}
	fatal(run(in, os.Stdout, os.Stderr))
}

// run folds the log read from in and prints its report to out; warnings
// go to errOut.
func run(in io.Reader, out, errOut io.Writer) error {
	res, err := fold(in, errOut)
	if err != nil {
		return err
	}
	s := res.Summary
	fmt.Fprintf(out, "sites: %d total, %d complete\n", s.SitesTotal, s.SitesComplete)
	fmt.Fprintf(out, "third-party: %d sites, %.1f scripts/site, %.0f%% tracking\n",
		s.SitesWithThirdParty, s.MeanTPScriptsPerSite, 100*s.TrackerScriptShare)
	fmt.Fprintf(out, "cookie pairs: %d document.cookie, %d cookieStore\n\n",
		s.UniquePairsDocument, s.UniquePairsCookieStore)
	report.Measurement(out, res)
	return nil
}

// fold folds the log read from in with the analyzer of the web its
// header names.
func fold(in io.Reader, errOut io.Writer) (*cookieguard.Results, error) {
	var (
		an  *cookieguard.Analyzer
		web instrument.LogHeader // the first line's header, zero if it has none
	)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var v instrument.VisitLog
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, err
		}
		if v.Site == "" {
			// Every record names its site, and a header decodes as a
			// record that does not. A header after the first line, from
			// logs joined end to end, must name the first line's web.
			h, ok, err := instrument.ParseLogHeader(line)
			switch {
			case err != nil:
				return nil, err
			case ok && an == nil:
				an, web = cookieguard.New(cookieguard.WithSites(h.Sites), cookieguard.WithSeed(h.Seed), cookieguard.WithCMP(h.CMP)).NewAnalyzer(), h
				continue
			case ok && h != web:
				return nil, fmt.Errorf("a later header names another web (%+v, first %+v)", h, web)
			case ok:
				continue
			}
		}
		if an == nil {
			an = defaultAnalyzer(errOut)
		}
		an.Observe(v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if an == nil { // an empty log
		an = defaultAnalyzer(errOut)
	}
	return an.Finalize(), nil
}

// defaultAnalyzer returns the analyzer for a log with no header, which
// names no web: it groups domains by the default entity map, as every
// log folded before logs carried a header.
func defaultAnalyzer(errOut io.Writer) *cookieguard.Analyzer {
	fmt.Fprintln(errOut, "analyze: the log has no header naming its web; folding with the default entity map, so entity groupings may differ from the crawl's own analysis")
	an := analysis.New()
	an.IsTracker = filterlist.ScriptTracker()
	return an
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}
