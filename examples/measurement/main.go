// Measurement runs a 200-site mini-crawl of the synthetic web and prints
// the §5 measurement report (Tables 1, 2 and 5, Figures 2 and 8) — the
// §4–5 pipeline end to end, in one streaming pass with live progress.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cookieguard"
	"cookieguard/internal/report"
)

func main() {
	p := cookieguard.New(
		cookieguard.WithSites(200),
		cookieguard.WithWorkers(8),
		cookieguard.WithInteract(true),
		cookieguard.WithProgressStats(func(ps cookieguard.ProgressStats) {
			if ps.Done%50 == 0 || ps.Done == ps.Total {
				fmt.Fprintf(os.Stderr, "  visited %d/%d\n", ps.Done, ps.Total)
			}
		}),
	)
	fmt.Println("crawling 200 synthetic sites...")
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncomplete sites: %d / %d\n", res.Summary.SitesComplete, res.Summary.SitesTotal)
	fmt.Printf("sites with third-party scripts: %d (mean %.1f scripts/site, %.0f%% tracking)\n\n",
		res.Summary.SitesWithThirdParty, res.Summary.MeanTPScriptsPerSite,
		100*res.Summary.TrackerScriptShare)
	report.Measurement(os.Stdout, res)
}
