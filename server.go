package cookieguard

// cookieguard.Server: the HTTP face of the versioned result store. A
// running crawl publishes immutable analysis snapshots into an
// internal/resultstore.Store (every K observed visits and once at
// finalize — see WithSnapshotEvery); the server exposes them as JSON
// with Consul-style blocking queries:
//
//	GET /v1/results                  full canonical analysis (StableJSON)
//	GET /v1/summary                  Results.Summary
//	GET /v1/sites                    per-site records, sorted by site
//	GET /v1/sites/{site}             one site's record
//	GET /v1/tables/retention         crawl-retention rollup, per vantage
//	GET /v1/tables/failures          failure-taxonomy table
//	GET /v1/tables/vantages          per-vantage latency/retention rows
//	GET /v1/tables/personas          per-persona consent-delta rows
//	GET /v1/tables/actions           Table 1 (cross-domain action rates)
//	GET /v1/progress                 crawl progress {done, total, final}
//	GET /v1/stats                    live scheduler/cache/pool/fabric counters
//
// Every versioned endpoint (all but /v1/stats, which reads live atomic
// counters and is never cached) implements the index protocol:
//
//   - The response carries `X-Result-Index: N` and `ETag: "cg-N"`, the
//     monotonic snapshot index the body was built from.
//   - `?index=N` turns the request into a blocking query: if the store
//     has advanced past N the current snapshot returns immediately;
//     otherwise the request parks — no goroutine per waiter — until the
//     next publish or the `?wait=30s` timeout (default 30s, capped at
//     2m), a timeout returning the unchanged index so the client just
//     re-polls with it. A malformed `?index` or `?wait` answers 400,
//     also a `?wait` given without `?index`.
//   - `If-None-Match` with the current ETag short-circuits to 304.
//
// Each endpoint caches its encoding of the latest snapshot index, so any
// number of pollers at the current index cost zero marshalling and
// never touch the analyzer (enforced by an allocation-counting test).
// /v1/results and /v1/sites share one analysis.SiteListing: both reuse
// unchanged rows across indexes and across each other, re-encoding only
// the sites that changed since the previous snapshot, and write the
// rows one by one without building a contiguous body.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cookieguard/internal/analysis"
	"cookieguard/internal/resultstore"
)

const (
	// defaultWait is the blocking-query park time when ?index is given
	// without ?wait; maxWait caps client-supplied waits.
	defaultWait = 30 * time.Second
	maxWait     = 2 * time.Minute
)

// LiveStats is the /v1/stats payload: point-in-time counters that change
// with every visit, read from atomics rather than snapshots (hence
// unversioned and uncached).
type LiveStats struct {
	Sched    SchedSnapshot `json:"sched"`
	Cache    CacheStats    `json:"cache"`
	Pool     PoolStats     `json:"pool"`
	Requests int64         `json:"requests"`
	Faults   int64         `json:"faults"`
}

// Server serves a Pipeline's versioned analysis snapshots over HTTP. It
// implements http.Handler; construct with Pipeline.NewServer and mount
// anywhere (Pipeline.Run auto-mounts it on the WithServer address).
type Server struct {
	pipe  *Pipeline
	store *resultstore.Store
	mux   *http.ServeMux
	// empty stands in for index 0's nil Results so endpoint builders
	// always see a valid (zero) analysis.
	empty *analysis.Results
}

// NewServer returns the HTTP server over this pipeline's result store.
// The store starts at index 0 (empty) and is fed by Pipeline.Run when
// serving is enabled (WithServer / WithSnapshotEvery), or by direct
// ResultStore().Publish calls for custom pipelines.
func (p *Pipeline) NewServer() *Server {
	s := &Server{
		pipe:  p,
		store: p.ResultStore(),
		mux:   http.NewServeMux(),
		empty: analysis.New().Finalize(),
	}
	listing := &analysis.SiteListing{}
	s.versioned("GET /v1/results", func(res *analysis.Results, _ resultstore.Snapshot) ([][]byte, error) {
		return listing.Results(res)
	})
	s.versioned("GET /v1/summary", marshal(func(res *analysis.Results) any { return res.Summary }))
	s.versioned("GET /v1/sites", func(res *analysis.Results, _ resultstore.Snapshot) ([][]byte, error) {
		return listing.Encode(res)
	})
	s.versioned("GET /v1/tables/retention", marshal(func(res *analysis.Results) any { return res.Retention() }))
	s.versioned("GET /v1/tables/failures", marshal(func(res *analysis.Results) any { return res.FailureTable() }))
	s.versioned("GET /v1/tables/vantages", marshal(func(res *analysis.Results) any { return res.VantageTable() }))
	s.versioned("GET /v1/tables/personas", marshal(func(res *analysis.Results) any { return res.PersonaTable() }))
	s.versioned("GET /v1/tables/actions", marshal(func(res *analysis.Results) any { return res.Table1() }))
	s.versioned("GET /v1/progress", func(_ *analysis.Results, snap resultstore.Snapshot) ([][]byte, error) {
		return oneChunk(json.Marshal(struct {
			Index uint64 `json:"index"`
			resultstore.Progress
		}{snap.Index, snap.Progress}))
	})
	s.mux.HandleFunc("GET /v1/sites/{site}", s.handleSite)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// marshal adapts a plain view function to the versioned builder shape.
func marshal(view func(*analysis.Results) any) func(*analysis.Results, resultstore.Snapshot) ([][]byte, error) {
	return func(res *analysis.Results, _ resultstore.Snapshot) ([][]byte, error) {
		return oneChunk(json.Marshal(view(res)))
	}
}

// oneChunk wraps a contiguous body in the chunked body shape.
func oneChunk(body []byte, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	return [][]byte{body}, nil
}

// encCache memoizes one endpoint's encoding of one snapshot index: the
// body as chunks, written in order. Published snapshots are immutable,
// so index equality is encoding validity; a new index simply overwrites
// (pollers only ever want the newest version).
type encCache struct {
	mu    sync.Mutex
	index uint64
	body  [][]byte
	valid bool
}

func (c *encCache) get(snap resultstore.Snapshot, build func() ([][]byte, error)) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.valid && c.index == snap.Index {
		return c.body, nil
	}
	body, err := build()
	if err != nil {
		return nil, err
	}
	c.index, c.body, c.valid = snap.Index, body, true
	return body, nil
}

// versioned mounts one blocking-query endpoint that serves the
// per-index cached encoding.
func (s *Server) versioned(pattern string, build func(*analysis.Results, resultstore.Snapshot) ([][]byte, error)) {
	cache := &encCache{}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		snap, ok := s.snapshot(w, r)
		if !ok {
			return
		}
		body, err := cache.get(snap, func() ([][]byte, error) {
			return build(s.results(snap), snap)
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		for _, chunk := range body {
			if _, err := w.Write(chunk); err != nil {
				return // the client went away
			}
		}
	})
}

// snapshot is every versioned endpoint's preamble, the index protocol:
// no ?index → the current snapshot at once; ?index=N → block until the
// store advances past N, the wait expires, or the client goes away. A
// given ?wait must parse as a duration even without ?index, so a client
// that misspells index is told so rather than answered without
// blocking. It sets the version headers, answers a matching
// If-None-Match with 304, and reports whether to write the body.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) (resultstore.Snapshot, bool) {
	q := r.URL.Query()
	idxStr := q.Get("index")
	var index uint64
	if idxStr != "" {
		var err error
		if index, err = strconv.ParseUint(idxStr, 10, 64); err != nil {
			http.Error(w, "bad index: "+err.Error(), http.StatusBadRequest)
			return resultstore.Snapshot{}, false
		}
	}
	wait := defaultWait
	if ws := q.Get("wait"); ws != "" {
		var err error
		if wait, err = time.ParseDuration(ws); err != nil {
			http.Error(w, "bad wait: "+err.Error(), http.StatusBadRequest)
			return resultstore.Snapshot{}, false
		}
		wait = min(wait, maxWait)
	}
	var snap resultstore.Snapshot
	if idxStr == "" {
		snap = s.store.Latest()
	} else {
		snap = s.store.Wait(r.Context(), index, wait)
	}
	idx := strconv.FormatUint(snap.Index, 10)
	etag := `"cg-` + idx + `"`
	w.Header().Set("X-Result-Index", idx)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return snap, false
	}
	return snap, true
}

func (s *Server) results(snap resultstore.Snapshot) *analysis.Results {
	if snap.Results == nil {
		return s.empty
	}
	return snap.Results
}

// handleSite serves one site's record. Versioned like the table
// endpoints but marshalled per request (the per-site fan-out is too wide
// to cache every encoding; a dashboard polls tables, not single sites).
func (s *Server) handleSite(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	site := r.PathValue("site")
	row, found := s.results(snap).SiteRow(site)
	if !found {
		http.Error(w, "unknown site: "+site, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(row)
}

// handleStats serves the live counters. Unversioned: the values come
// from atomic counters that advance with every visit, so there is no
// meaningful index to block on — poll /v1/progress for versioned
// advancement and this for instantaneous rates.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(LiveStats{
		Sched:    s.pipe.SchedStats(),
		Cache:    s.pipe.CacheStats(),
		Pool:     s.pipe.PoolStats(),
		Requests: s.pipe.Net.Requests(),
		Faults:   s.pipe.Net.Faults(),
	})
}
