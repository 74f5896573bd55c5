// Exfiltration reproduces the paper's two §5.4 case studies on a crafted
// page and runs the identifier-detection pipeline over the observed
// traffic:
//
//  1. the LinkedIn insight tag parsing googletagmanager's _ga cookie and
//     shipping Base64-encoded segments to px.ads.linkedin.com;
//  2. the Osano consent script syncing facebook.net's _fbp identifier to
//     Criteo (sslwidget.criteo.com).
package main

import (
	"fmt"
	"log"
	"net/http"

	"cookieguard/internal/analysis"
	"cookieguard/internal/browser"
	"cookieguard/internal/instrument"
	"cookieguard/internal/netsim"
)

func main() {
	in := netsim.New()

	in.RegisterFunc("www.optimonk-like.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `<html><head>
<script src="https://www.googletagmanager.com/gtm.js"></script>
<script src="https://connect.facebook.net/en_US/fbevents.js"></script>
<script src="https://snap.licdn.com/li.lms-analytics/insight.min.js"></script>
<script src="https://cmp.osano.com/osano.js"></script>
</head><body><div id="main"></div></body></html>`)
	})
	serve := func(host, path, body string) {
		in.RegisterFunc(host, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == path {
				fmt.Fprint(w, body)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
	}
	serve("www.googletagmanager.com", "/gtm.js",
		`set_cookie("_ga", "GA1.1.444332364." + str(now_ms()), {"max_age": 63072000});`)
	serve("connect.facebook.net", "/en_US/fbevents.js",
		`set_cookie("_fbp", "fb.0." + str(now_ms()) + "." + rand_id(18), {"max_age": 7776000});`)
	// Case study 1: targeted parsing + Base64 encoding of _ga segments.
	serve("snap.licdn.com", "/li.lms-analytics/insight.min.js", `
let g = get_cookie("_ga");
if (g != null) {
  let parts = split(g, ".");
  let cid = parts[2];
  let ts = parts[3];
  send("https://px.ads.linkedin.com/attribution_trigger", {
    "pid": "621340",
    "url": page_url(),
    "_ga": b64(cid) + "." + b64(ts)
  });
}`)
	// Case study 2: a consent manager syncing _fbp to Criteo.
	serve("cmp.osano.com", "/osano.js", `
let fbp = get_cookie("_fbp");
if (fbp != null) {
  send("https://sslwidget.criteo.com/event", {"sc": "{\"fbp\":\"" + fbp + "\"}"});
}`)
	in.RegisterFunc("px.ads.linkedin.com", sink)
	in.RegisterFunc("sslwidget.criteo.com", sink)

	// Instrumented visit.
	rec := instrument.NewRecorder()
	b, err := browser.New(browser.Options{
		Internet:         in,
		CookieMiddleware: []browser.CookieMiddleware{rec.Middleware()},
	})
	if err != nil {
		log.Fatal(err)
	}
	page, err := b.Visit("https://www.optimonk-like.example/")
	if err != nil {
		log.Fatal(err)
	}
	vlog := rec.BuildVisitLog("optimonk-like.example", []*browser.Page{page}, nil)

	// Detection, via the incremental analyzer: Observe folds in one log
	// at a time (a streaming crawl feeds it the same way), Finalize
	// aggregates.
	an := analysis.New()
	an.Observe(vlog)
	res := an.Finalize()
	fmt.Println("== detected cross-domain exfiltration events ==")
	for _, row := range res.SiteRows() {
		for _, e := range row.Events {
			if e.Kind != analysis.ActExfiltration {
				continue
			}
			fmt.Printf("  cookie %-6s (owner %-22s) exfiltrated by %-14s -> %s\n",
				e.Cookie.Name, e.Cookie.Owner, e.ActorDomain, e.Destination)
		}
	}
	fmt.Println("\nBoth case studies are caught even though the _ga segments were")
	fmt.Println("Base64-encoded: the pipeline matches raw, Base64, MD5, and SHA1 forms.")
}

func sink(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) }
