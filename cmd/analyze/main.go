// Command analyze runs the §4.4 analysis framework over JSONL visit logs
// produced by cmd/crawl, printing a few headline counts and the §5
// measurement report cmd/experiments prints (report.Measurement). Logs
// are folded into the analyzer one line at a time (Observe/Finalize), so
// the input never needs to fit in memory.
//
// Limitation: analyze groups domains into entities with the default
// entity map, not the generated web's, which the logs do not carry and
// which needs the web's seed and size to rebuild. A CDN-split site's two
// domains and a same-entity IdP's two domains are therefore separate
// entities here, where cookieguard.Pipeline's own analysis joins them
// ("site01408.com" against "Site site01408.com"). On large webs some
// pair rows, and the entity columns of Tables 2 and 5 built from them,
// can differ from the pipeline's fold of the same logs.
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
	"os"

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

	an := analysis.New()
	an.IsTracker = filterlist.ScriptTracker()

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var v instrument.VisitLog
		fatal(json.Unmarshal(sc.Bytes(), &v))
		an.Observe(v)
	}
	fatal(sc.Err())
	res := an.Finalize()

	out := os.Stdout
	s := res.Summary
	fmt.Fprintf(out, "sites: %d total, %d complete\n", s.SitesTotal, s.SitesComplete)
	fmt.Fprintf(out, "third-party: %d sites, %.1f scripts/site, %.0f%% tracking\n",
		s.SitesWithThirdParty, s.MeanTPScriptsPerSite, 100*s.TrackerScriptShare)
	fmt.Fprintf(out, "cookie pairs: %d document.cookie, %d cookieStore\n\n",
		s.UniquePairsDocument, s.UniquePairsCookieStore)
	report.Measurement(out, res)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}
