// Command crawl runs the instrumented measurement crawl (§4.2) over a
// generated synthetic web and writes one JSON visit log per line. Logs
// are written as the crawl produces them — a single streaming pass with
// O(workers) resident logs, so arbitrarily large site counts fit in
// constant memory. Records appear in completion order, which varies with
// scheduling; with a fixed -seed the per-site records are byte-identical
// across runs, so compare outputs as sets — or pass -sort to emit
// site-ordered, byte-stable JSONL directly (buffers the whole output, so
// memory scales with -sites) and diff whole files.
//
// The first line is a header, not a record: {"header":{"sites":N,
// "seed":S,"cmp":B}} (instrument.LogHeader), the web the crawl generated,
// as resolved (-sites 0 crawls, and names, 100 sites; the default seed is
// written out). cmd/analyze rebuilds that web from it and folds the
// records as the crawl's own pipeline does. The header names nothing
// else (no workers, faults, guard or vantages), so crawls meant to match
// write the same one. It is first under -sort and in an interrupted
// crawl's output too.
//
// Usage:
//
//	crawl [-sites N] [-workers N] [-seed S] [-guard] [-sort] [-faults RATE]
//	      [-retries N] [-second-pass] [-breaker] [-autopilot]
//	      [-vantages eu-west,us-east]
//	      [-personas accept,reject,dismiss] [-cmp]
//	      [-pooling=BOOL] [-v] [-o logs.jsonl] [-list tranco.csv]
//	      [-serve :8089] [-snap-every K]
//	      [-checkpoint DIR] [-crash-after N]
//
// -checkpoint enables crash-safe checkpointing: every terminal unit is
// journaled write-ahead in DIR, and rerunning with the same flags and a
// non-empty DIR RESUMES the crawl — journaled units re-execute
// deterministically with their outcomes verified against the journal,
// live crawling picks up at the first missing one, and the finished
// output is byte-identical to an uninterrupted run (same -sort file,
// any -workers). -crash-after N kills the crawl right after the N-th
// journaled unit (exit code 3) for resume testing; leave it off when
// resuming. SIGINT/SIGTERM stops the crawl gracefully: in-flight
// visits drain, the visits delivered so far are written (site-ordered
// under -sort), buffered journal appends flush, the -serve server
// drains its connections, and the process exits 130 (crawl cut short)
// or 0 (interrupted while serving final results — the normal way out).
//
// -serve additionally runs the live analysis alongside the crawl and
// exposes it at the given address (cookieguard.Server: /v1/results,
// /v1/tables/retention, ..., with ?index=N&wait=30s blocking queries —
// `curl 'localhost:8089/v1/tables/retention?index=0'` streams table
// updates while the crawl runs). A fresh snapshot publishes every
// -snap-every visits (default 64) and once at the end; after the crawl
// the process keeps serving the final results until interrupted.
//
// -v prints live counters (progress, fabric faults, cache hit rates,
// resident bytes and evictions, and pool reuse) to stderr every 100
// visits.
//
// The crawl flags cmd/experiments shares (-sites, -workers, -seed,
// -faults, -retries, -second-pass, -breaker, -autopilot, -vantages,
// -personas, -cmp, -pooling) come from package crawlflags; -h describes
// each. A second-pass re-crawl's requests carry "attempt":2, and
// -vantages and -personas tag each record with its vantage and persona.
// All of them keep per-(site, vantage, persona) records byte-identical
// across runs and worker counts for a fixed -seed; -sort orders the
// output file by that same key.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"cookieguard"
	"cookieguard/internal/crawlflags"
	"cookieguard/internal/instrument"
	"cookieguard/internal/trancolist"
)

func main() {
	cf := crawlflags.Register(flag.CommandLine, 1000, "sites to generate and crawl")
	guarded := flag.Bool("guard", false, "crawl with CookieGuard enabled")
	sortOut := flag.Bool("sort", false,
		"emit site-ordered JSONL instead of completion order: with a fixed -seed the whole file is byte-stable across runs and worker counts, so plain diff works (buffers all logs; memory scales with -sites)")
	outPath := flag.String("o", "-", "output JSONL path (- = stdout)")
	listPath := flag.String("list", "", "also write the ranked site list (Tranco analogue) to this path")
	verbose := flag.Bool("v", false,
		"print live crawl counters to stderr (progress, fabric faults, cache hit rates, resident bytes and evictions, pool reuse)")
	serveAddr := flag.String("serve", "",
		"serve live analysis over HTTP at this address (e.g. :8089) while crawling, and keep serving the final results after the crawl until interrupted")
	snapEvery := flag.Int("snap-every", 0,
		"publish an analysis snapshot every K visits on the served endpoints (0 = default 64); only meaningful with -serve")
	checkpoint := flag.String("checkpoint", "",
		"crash-safe checkpoint directory: journal every terminal unit write-ahead, and resume from a non-empty journal to output byte-identical to an uninterrupted run")
	crashAfter := flag.Int("crash-after", 0,
		"crash-injection harness: abort with exit code 3 right after the N-th journaled unit (requires -checkpoint; omit when resuming)")
	flag.Parse()

	opts := cf.Options()
	if *verbose {
		// Live counters every 100 visits (and on the last): fault totals,
		// cache hit rates and residency, and pool reuse, so long crawls
		// are observable.
		opts = append(opts, cookieguard.WithProgressStats(func(ps cookieguard.ProgressStats) {
			if ps.Done%100 != 0 && ps.Done != ps.Total {
				return
			}
			cs := ps.Cache
			progHit := rate(cs.ProgramHits, cs.ProgramMisses)
			domHit := rate(cs.DOMHits, cs.DOMMisses)
			bodyHit := rate(cs.BodyHits, cs.BodyMisses)
			resident := cs.ProgramResidentBytes + cs.DOMResidentBytes + cs.BodyResidentBytes
			evictions := cs.ProgramEvictions + cs.DOMEvictions + cs.BodyEvictions
			fmt.Fprintf(os.Stderr,
				"crawl: %d/%d visits, %d requests, %d faults, cache prog %.1f%% dom %.1f%% body %.1f%% (%.1f MB resident, %d evictions), pool reuse %.1f%%\n",
				ps.Done, ps.Total, ps.Requests, ps.Faults,
				100*progHit, 100*domHit, 100*bodyHit, float64(resident)/1e6, evictions, 100*ps.Pool.ReuseRate())
		}))
	}
	if *guarded {
		opts = append(opts, cookieguard.WithGuard(cookieguard.DefaultGuardPolicy()))
	}
	p := cookieguard.New(append(opts, cookieguard.WithCheckpoint(*checkpoint), cookieguard.WithCrashAfterUnits(*crashAfter))...)

	// SIGINT/SIGTERM cancels the crawl context: workers drain their
	// in-flight visits, the journal flushes, and the exit path below
	// shuts the server down gracefully. A second signal kills the
	// process the default way (stop() restores default handling once
	// ctx fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -serve: analysis rides along with the crawl. The stream loop below
	// is the analyzer's single consumer; snapshots publish at the
	// requested cadence and blocked /v1 pollers wake on each.
	var (
		an        *cookieguard.Analyzer
		store     *cookieguard.ResultStore
		snapCycle = *snapEvery
	)
	if *serveAddr != "" {
		bound, err := p.StartServer(*serveAddr)
		fatal(err)
		fmt.Fprintf(os.Stderr, "crawl: serving live analysis on http://%s/v1/\n", bound)
		store = p.ResultStore()
		an = p.NewAnalyzer()
		if snapCycle <= 0 {
			snapCycle = 64
		}
	}
	total := len(p.Web.Sites) * len(p.Vantages()) * max(1, len(p.Personas()))

	if *listPath != "" {
		f, err := os.Create(*listPath)
		fatal(err)
		fatal(trancolist.Write(f, p.SiteList()))
		fatal(f.Close())
	}

	out := os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		fatal(err)
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	// The header stays in w's buffer until records follow it, so a
	// crash-injected exit still leaves the file empty.
	w.Write(instrument.LogHeader{Sites: len(p.Web.Sites), Seed: p.Web.Config.Seed, CMP: p.Web.Config.CMP}.Line())

	logs, errs := p.Stream(ctx)
	visited, complete := 0, 0
	var buffered []sortedLine
	// The streaming path encodes straight into the buffered writer: the
	// encoder reuses its internal buffers line over line, where the old
	// Marshal-per-line path allocated (and copied) every encoded log.
	enc := json.NewEncoder(w)
	for l := range logs {
		visited++
		if l.Complete() {
			complete++
		}
		if an != nil {
			an.Observe(l)
			if visited%snapCycle == 0 {
				store.Publish(cookieguard.ResultProgress{Done: visited, Total: total}, an.Snapshot())
			}
		}
		if *sortOut {
			b, err := json.Marshal(l)
			fatal(err)
			buffered = append(buffered, sortedLine{key: l.Site + "\x00" + l.Vantage + "\x00" + l.Persona, line: string(b)})
		} else {
			fatal(enc.Encode(l))
		}
		l.Release() // encoded above, so nothing reads l any more
	}
	if err := <-errs; err != nil {
		switch {
		case errors.Is(err, cookieguard.ErrCrashInjected):
			// The injected kill fires after its unit record is durable:
			// partial output is deliberately NOT flushed (the journal is
			// the source of truth) and exit code 3 tells the harness the
			// crash landed as seeded.
			fmt.Fprintf(os.Stderr, "crawl: crash injected after %d units; resume with -checkpoint %s\n",
				*crashAfter, *checkpoint)
			os.Exit(3)
		case errors.Is(err, context.Canceled) && ctx.Err() != nil:
			// Interrupted: in-flight visits drained before the stream
			// closed. Keep the partial output — every delivered visit,
			// site-ordered under -sort — flush the journal and drain the
			// server, and exit 130 (128+SIGINT) so callers see the crawl
			// was cut short.
			writeSorted(w, buffered)
			if err := w.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "crawl: writing output:", err)
			}
			shutdown(p)
			fmt.Fprintf(os.Stderr, "crawl: interrupted after %d visits; journal flushed\n", visited)
			os.Exit(130)
		default:
			fatal(err)
		}
	}
	if an != nil {
		store.Publish(cookieguard.ResultProgress{Done: visited, Total: total, Final: true}, an.Finalize())
	}
	writeSorted(w, buffered)
	if *checkpoint != "" {
		if st, ok := p.CheckpointStats(); ok {
			fmt.Fprintf(os.Stderr, "crawl: checkpoint: %d units journaled, %d resumed from journal, %d bytes, %d fsyncs\n",
				st.Records, st.Replayed, st.BytesWritten, st.Fsyncs)
		}
	}
	fmt.Fprintf(os.Stderr, "crawl: %d sites visited, %d complete\n", visited, complete)
	if *serveAddr != "" {
		w.Flush()
		fmt.Fprintln(os.Stderr, "crawl: serving final results; interrupt to exit")
		<-ctx.Done()
		stop()
		shutdown(p)
		fmt.Fprintln(os.Stderr, "crawl: server drained, exiting")
	}
}

// sortedLine is one -sort output line, keyed by (site, vantage,
// persona).
type sortedLine struct{ key, line string }

// writeSorted writes the -sort lines in key order. The key is unique
// per crawl, so the order is total and the file is byte-stable for a
// fixed seed — a whole crawl's or, interrupted, the visits it finished.
func writeSorted(w *bufio.Writer, lines []sortedLine) {
	sort.Slice(lines, func(i, j int) bool { return lines[i].key < lines[j].key })
	for _, r := range lines {
		w.WriteString(r.line)
		w.WriteByte('\n')
	}
}

// shutdown drains the pipeline's serving side (blocked long-polls
// release, in-flight requests complete) and flushes the checkpoint
// journal, bounded by a drain deadline.
func shutdown(p *cookieguard.Pipeline) {
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "crawl: shutdown:", err)
	}
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}
