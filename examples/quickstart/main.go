// Quickstart: build a tiny synthetic web and crawl it twice with the
// streaming pipeline — once plain (cookieguard.New), once under
// CookieGuard (Pipeline.Derive). Crawl and analysis run in a single pass:
// each visit log is folded into the analyzer the moment its visit
// finishes, so memory stays O(workers) no matter how many sites.
package main

import (
	"context"
	"fmt"
	"log"

	"cookieguard"
	"cookieguard/internal/analysis"
)

func main() {
	// A tiny pipeline: 3 sites, deterministic, with user interaction.
	opts := []cookieguard.Option{cookieguard.WithSites(3), cookieguard.WithInteract(true)}
	p := cookieguard.New(opts...)

	fmt.Println("== sites ==")
	for _, e := range p.SiteList() {
		fmt.Printf("  #%d %s\n", e.Rank, e.Domain)
	}

	// Crawl + analyze in one streaming pass: the measurement baseline.
	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== baseline crawl ==\n")
	fmt.Printf("complete sites: %d\n", res.Summary.SitesComplete)
	fmt.Printf("unique cookie pairs: %d\n", res.Summary.UniquePairsDocument)
	fmt.Printf("sites with cross-domain exfiltration: %.0f%%\n",
		res.SitePct(analysis.ActExfiltration))

	// The same crawl of the same web under CookieGuard: one more option.
	guarded, err := p.Derive(append(opts, cookieguard.WithGuard(cookieguard.DefaultGuardPolicy()))...)
	if err != nil {
		log.Fatal(err)
	}
	gres, err := guarded.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== with CookieGuard ==\n")
	fmt.Printf("sites with cross-domain exfiltration: %.0f%%\n",
		gres.SitePct(analysis.ActExfiltration))
	fmt.Println("\nCookieGuard isolates each script to the cookies its own domain created.")

	// Need the raw logs too? Consume the stream directly — logs arrive
	// as visits finish, bounded by the worker count.
	logs, errs := p.Stream(context.Background())
	fmt.Printf("\n== streamed visit logs ==\n")
	for v := range logs {
		fmt.Printf("  %-16s cookies=%-3d requests=%d\n", v.Site, len(v.Cookies), len(v.Requests))
	}
	if err := <-errs; err != nil {
		log.Fatal(err)
	}
}
