// Command webgen generates a synthetic web and prints its population
// statistics: site flags, service mix, and calibration summary.
//
// Usage:
//
//	webgen [-sites N] [-seed S] [-cmp]
//
// -cmp generates the web with consent-management platforms — every
// third-party-bearing site gains a consent banner and a seeded manifest
// of trackers gated on the consent cookie — and adds the CMP manifest
// rows to the statistics.
package main

import (
	"flag"
	"fmt"

	"cookieguard/internal/stats"
	"cookieguard/internal/webgen"
)

func main() {
	sites := flag.Int("sites", 1000, "sites to generate")
	seed := flag.Uint64("seed", 0, "override the default seed")
	cmp := flag.Bool("cmp", false,
		"generate consent-management platforms (banner + consent-gated tracker manifest) and report the CMP manifest statistics")
	flag.Parse()

	// Stats only: build the web directly, skipping the network fabric a
	// full cookieguard.New pipeline would also construct.
	cfg := webgen.DefaultConfig(*sites)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.CMP = *cmp
	w := webgen.Build(cfg)

	var complete, tp, exfil, ow, del, cs, sso, cdn, cloaked, tpScripts int
	var cmpSites, gatedTrackers, gatedContainers int
	for _, s := range w.Sites {
		f := s.Flags
		count := func(b bool, c *int) {
			if b {
				*c++
			}
		}
		count(f.Complete, &complete)
		count(f.HasTP, &tp)
		count(f.Exfil, &exfil)
		count(f.Overwrite, &ow)
		count(f.Delete, &del)
		count(f.CookieStore, &cs)
		count(f.SSO != "", &sso)
		count(f.CDNSplit, &cdn)
		count(f.Cloaked, &cloaked)
		count(len(s.Consent) > 0, &cmpSites)
		count(s.ContainerGated, &gatedContainers)
		gatedTrackers += len(s.Consent)
		tpScripts += len(s.DirectServices) + len(s.InjectedServices)
	}
	n := len(w.Sites)
	fmt.Printf("generated %d sites (%d services, %d entities)\n",
		n, len(w.Services), len(w.Entities.Entities()))
	row := func(name string, c int) {
		fmt.Printf("  %-24s %6d  (%.1f%%)\n", name, c, stats.Percent(c, n))
	}
	row("complete", complete)
	row("third-party scripts", tp)
	row("exfiltration planned", exfil)
	row("overwriting planned", ow)
	row("deleting planned", del)
	row("cookieStore usage", cs)
	row("SSO login flows", sso)
	row("CDN-split widgets", cdn)
	row("CNAME-cloaked trackers", cloaked)
	fmt.Printf("  %-24s %6.1f per site with TP\n", "mean TP scripts",
		float64(tpScripts)/float64(max(1, tp)))
	if *cmp {
		row("CMP banner sites", cmpSites)
		row("gated tag containers", gatedContainers)
		fmt.Printf("  %-24s %6.1f per CMP site\n", "mean gated trackers",
			float64(gatedTrackers)/float64(max(1, cmpSites)))
	}
}
