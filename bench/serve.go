package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// summaryEvery is reader B's schedule: an open loop of GET /v1/summary
// at 40 requests per second, the rate of a few dashboards refreshing.
const summaryEvery = 25 * time.Millisecond

// mirrorWait bounds one blocking /v1/sites query. Every publish answers a
// parked query at once, so it only expires when the crawl stalls.
const mirrorWait = "10s"

// serveLoad is serve-live's read traffic, sent from this process over at
// most NumCPU connections:
//
//   - reader A is a closed loop mirroring /v1/sites: a blocking query at
//     the last index it holds, so one full listing per published
//     snapshot it catches;
//   - reader B is an open loop polling /v1/summary with If-None-Match on
//     a fixed schedule, each request timed from when it was due.
type serveLoad struct {
	base   string
	client *http.Client
	tr     *tracer

	sent, errs atomic.Int64

	// reader A
	idx        atomic.Uint64 // newest index mirrored
	advanced   chan struct{} // poked after each new index
	stopMirror context.CancelFunc
	mirrorDone chan struct{}
	mirrorGets []float64 // ms per listing GET
	mirrorKB   float64
	mirrored   int

	// reader B
	stopPoll chan struct{}
	pollDone chan struct{}
	mu       sync.Mutex
	etag     string
	summary  []float64 // ms from due to done; +Inf for a failed request
	late     []float64 // ms from due to sent
}

func newServeLoad(base string, tr *tracer) *serveLoad {
	n := runtime.NumCPU()
	return &serveLoad{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
		}},
		tr:       tr,
		advanced: make(chan struct{}, 1),
	}
}

// start launches both readers; reader B's schedule starts at now.
func (l *serveLoad) start(ctx context.Context) {
	ctx, l.stopMirror = context.WithCancel(ctx)
	l.mirrorDone = make(chan struct{})
	go func() {
		defer close(l.mirrorDone)
		l.mirror(ctx)
	}()
	l.stopPoll, l.pollDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(l.pollDone)
		l.poll(openLoop{start: time.Now(), every: summaryEvery})
	}()
}

// mirror is reader A.
func (l *serveLoad) mirror(ctx context.Context) {
	parent := l.tr.begin("reader.mirror", spanRef{})
	defer l.tr.end(parent, "")
	for {
		idx := l.idx.Load()
		url := l.base + "/v1/sites?index=" + strconv.FormatUint(idx, 10) + "&wait=" + mirrorWait
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			l.errs.Add(1)
			return
		}
		s := l.tr.begin("server.mirror_get", parent)
		resp, err := l.client.Do(req)
		if ctx.Err() != nil {
			// Stopped by finish once the final listing was mirrored.
			if err == nil {
				resp.Body.Close()
			}
			return
		}
		l.sent.Add(1)
		if err != nil {
			l.errs.Add(1)
			return
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ns := l.tr.end(s, "")
		got, perr := strconv.ParseUint(resp.Header.Get("X-Result-Index"), 10, 64)
		if err != nil || perr != nil || resp.StatusCode != http.StatusOK {
			l.errs.Add(1)
			return
		}
		l.mirrorGets = append(l.mirrorGets, float64(ns)/1e6)
		if got > idx {
			l.mirrored++
			l.mirrorKB += float64(n) / 1024
			l.idx.Store(got)
			select {
			case l.advanced <- struct{}{}:
			default:
			}
		}
	}
}

// poll is reader B: it sends request k when due, late or not, and never
// waits for a reply before sending the next.
func (l *serveLoad) poll(ol openLoop) {
	parent := l.tr.begin("reader.summary", spanRef{})
	defer l.tr.end(parent, "")
	var wg sync.WaitGroup
	defer wg.Wait()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := ol.due(k)
		timer.Reset(time.Until(due))
		select {
		case <-l.stopPoll:
			return
		case <-timer.C:
		}
		sent := time.Now()
		l.mu.Lock()
		l.late = append(l.late, float64(sent.Sub(due))/1e6)
		etag := l.etag
		l.mu.Unlock()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			l.getSummary(ol, k, etag, parent)
		}(k)
	}
}

func (l *serveLoad) getSummary(ol openLoop, k int, etag string, parent spanRef) {
	s := l.tr.begin("server.summary_get", parent)
	ok := l.fetchSummary(etag)
	l.tr.end(s, "")
	ms := math.Inf(1)
	if ok {
		ms = float64(ol.latency(k, time.Now())) / 1e6
	}
	l.mu.Lock()
	l.summary = append(l.summary, ms)
	l.mu.Unlock()
}

// fetchSummary sends one summary poll and reports whether it succeeded:
// 200 with a body, or 304 for an unchanged snapshot.
func (l *serveLoad) fetchSummary(etag string) bool {
	l.sent.Add(1)
	req, err := http.NewRequest(http.MethodGet, l.base+"/v1/summary", nil)
	if err != nil {
		l.errs.Add(1)
		return false
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		l.errs.Add(1)
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified) {
		l.errs.Add(1)
		return false
	}
	if resp.StatusCode == http.StatusOK {
		l.mu.Lock()
		l.etag = resp.Header.Get("ETag")
		l.mu.Unlock()
	}
	return true
}

// stopPolling ends reader B once its in-flight requests are answered.
func (l *serveLoad) stopPolling() {
	close(l.stopPoll)
	<-l.pollDone
}

// finish waits until reader A holds the final snapshot, then stops it,
// and checks that /v1/results serves exactly the Results Run returned.
func (l *serveLoad) finish(final uint64, want []byte) error {
	deadline := time.After(time.Minute)
wait:
	for l.idx.Load() < final {
		select {
		case <-l.advanced:
		case <-l.mirrorDone:
			break wait
		case <-deadline:
			break wait
		}
	}
	l.stopMirror()
	<-l.mirrorDone
	if got := l.idx.Load(); got < final {
		return fmt.Errorf("reader A mirrored index %d, final is %d", got, final)
	}
	l.sent.Add(1)
	resp, err := l.client.Get(l.base + "/v1/results")
	if err != nil {
		l.errs.Add(1)
		return fmt.Errorf("GET /v1/results: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		l.errs.Add(1)
		return fmt.Errorf("GET /v1/results: status %d, %v", resp.StatusCode, err)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("/v1/results (%d bytes) differs from Run's StableJSON (%d bytes)", len(body), len(want))
	}
	l.client.CloseIdleConnections()
	return nil
}
