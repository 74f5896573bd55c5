// Command webserve exposes the synthetic web on a real TCP port, routed
// by Host header, so a real browser (with /etc/hosts entries or a proxy)
// can explore the generated sites.
//
// Usage:
//
//	webserve [-sites N] [-seed S] [-addr :8080]
//
// -seed fixes the web-generation seed (the same flag cmd/crawl and
// cmd/experiments take), so a served web is reproducible: the seed in
// the startup banner regenerates the exact same sites elsewhere.
//
// The listen address is bound before anything is printed: a bind
// failure (address already in use, permission denied) exits non-zero
// immediately with a clear message, and the banner shows the actually
// bound address — so -addr :0 picks a free port and prints it.
// SIGINT/SIGTERM drains in-flight requests and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cookieguard"
)

func main() {
	sites := flag.Int("sites", 50, "sites to generate")
	seed := flag.Uint64("seed", 0, "override the default deterministic web-generation seed")
	addr := flag.String("addr", ":8080", "listen address")
	flag.Parse()

	// Bind before generating the web: a taken port fails in
	// milliseconds instead of after seconds of site generation.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "webserve: cannot listen on %s: %v\n", *addr, err)
		os.Exit(1)
	}
	bound := ln.Addr().String()

	study := cookieguard.New(cookieguard.WithSites(*sites), cookieguard.WithSeed(*seed))
	fmt.Printf("serving %d synthetic sites on %s, seed %d (route by Host header)\n",
		len(study.Web.Sites), bound, study.Web.Config.Seed)
	for i, e := range study.SiteList() {
		if i >= 10 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  curl -H 'Host: www.%s' http://%s/\n", e.Domain, bound)
	}

	srv := &http.Server{
		Handler:           study.Net,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "webserve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "webserve: shutdown:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "webserve: drained, exiting")
	}
}
