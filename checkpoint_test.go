package cookieguard

// Pipeline-level tests for crash-safe checkpointing and graceful
// shutdown: a crawl killed at a seeded unit count and resumed via
// WithCheckpoint reproduces the uninterrupted run's Results and
// scheduler counters byte for byte; a journal written under a
// different configuration is rejected; and Shutdown releases a blocked
// long-poll client instead of dropping it.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cookieguard/internal/journal"
)

// checkpointOpts is the full resilience shape the pipeline crash tests
// run under: faults, retries, second pass, breaker with autopilot, two
// vantages, two personas.
func checkpointOpts(workers int) []Option {
	rp := DefaultRetryPolicy()
	rp.MaxAttempts = 2
	return []Option{
		WithSites(30), WithWorkers(workers), WithSeed(7), WithInteract(true),
		WithFaults(UniformFaults(0.1, 7)),
		WithRetryPolicy(rp),
		WithSecondPass(true),
		WithBreaker(Breaker{Enabled: true}),
		WithBreakerAutopilot(),
		WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
		WithPersonas("accept", "reject"),
	}
}

func schedJSON(t *testing.T, p *Pipeline) string {
	t.Helper()
	b, err := json.Marshal(p.SchedStats())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointPipelineCrashResume is the acceptance criterion at the
// pipeline layer: kill a checkpointed Run at a seeded unit count,
// resume with a fresh Pipeline on the same directory, and require
// Results.StableJSON() and the scheduler counters byte-identical to an
// un-checkpointed uninterrupted run — under faults with breaker +
// autopilot + personas, resuming at a different worker count.
func TestCheckpointPipelineCrashResume(t *testing.T) {
	base := New(checkpointOpts(4)...)
	res, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := stableJSON(t, res)
	wantSched := schedJSON(t, base)
	if base.Net.Faults() == 0 {
		t.Fatal("the fabric injected no fault; the resume check is vacuous")
	}

	dir := t.TempDir()
	crashed := New(append(checkpointOpts(8),
		WithCheckpoint(dir), WithCrashAfterUnits(20))...)
	if _, err := crashed.Run(context.Background()); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crashed run: got %v, want ErrCrashInjected", err)
	}

	resumed := New(append(checkpointOpts(3), WithCheckpoint(dir))...)
	rres, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if stableJSON(t, rres) != want {
		t.Fatal("resumed Results.StableJSON() diverges from the uninterrupted run")
	}
	if got := schedJSON(t, resumed); got != wantSched {
		t.Fatalf("resumed scheduler counters diverge:\nwant: %s\ngot:  %s", wantSched, got)
	}
	st, ok := resumed.CheckpointStats()
	if !ok {
		t.Fatal("resumed pipeline reports no checkpoint stats")
	}
	if st.LoadedUnits == 0 || st.Replayed == 0 {
		t.Fatalf("resume consumed nothing from the journal: %+v", st)
	}
	if rres.Summary.SitesComplete == 0 {
		t.Fatal("no complete sites; equality check is vacuous")
	}
}

// TestCheckpointFingerprintMismatch: a journal written under one
// configuration must be rejected — not silently replayed — by a crawl
// whose configuration would emit different bytes.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	p := New(WithSites(15), WithWorkers(4), WithSeed(7), WithCheckpoint(dir))
	if _, err := collectStream(p); err != nil {
		t.Fatal(err)
	}
	q := New(WithSites(15), WithWorkers(4), WithSeed(8), WithCheckpoint(dir))
	_, err := collectStream(q)
	if err == nil {
		t.Fatal("crawl with a foreign journal succeeded; want fingerprint rejection")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("rejection does not name the fingerprint: %v", err)
	}
}

// TestCheckpointFingerprintGolden pins the journal fingerprint of two
// configurations to the values journals already on disk carry: the
// default shape and the full resilience shape of checkpointOpts. A
// changed fingerprint makes every existing journal unresumable, so a
// refactor that drops or renames a fingerprint field must leave these
// digests as they are.
func TestCheckpointFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		opts       []Option
	}{
		{"default", "7072e3e370e913f3a023e1aaa32b031f", []Option{WithSites(30), WithSeed(7)}},
		{"resilient", "715915585a9c8a1fdb1ba6d44b26761a", checkpointOpts(4)},
	} {
		if got := New(tc.opts...).checkpointFingerprint(); got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCheckpointStatsWithoutCheckpoint: no checkpoint directory, no
// stats — the probe must not fabricate a journal.
func TestCheckpointStatsWithoutCheckpoint(t *testing.T) {
	p := New(WithSites(5))
	if _, ok := p.CheckpointStats(); ok {
		t.Fatal("CheckpointStats reports a journal without WithCheckpoint")
	}
}

// TestShutdownClosesJournal: Shutdown closes the checkpoint journal's
// file, a second Shutdown still returns nil, and CheckpointStats keeps
// reporting the closed journal's counters.
func TestShutdownClosesJournal(t *testing.T) {
	dir := t.TempDir()
	p := New(WithSites(10), WithWorkers(2), WithCheckpoint(dir))
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	path, err := filepath.EvalSymlinks(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	openFDs := func() (n int) {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to list open files:", err)
		}
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
				n++
			}
		}
		return n
	}
	if openFDs() == 0 {
		t.Fatal("the journal is not open after a checkpointed Run")
	}
	for i := 0; i < 2; i++ {
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown #%d: %v", i+1, err)
		}
	}
	if n := openFDs(); n != 0 {
		t.Fatalf("the journal is still open %d times after Shutdown", n)
	}
	st, ok := p.CheckpointStats()
	if !ok || st.Records == 0 {
		t.Fatalf("CheckpointStats after Shutdown = %+v, %v; want the crawl's records", st, ok)
	}
}

// TestShutdownDrainsBlockedLongPoll is the serve-path acceptance
// criterion: with a client parked on a blocking query at the current
// index, Shutdown must release the poll (the client gets a normal
// timed-out-style response at the unchanged index) and drain the
// connection — well before the client's 30s wait cap.
func TestShutdownDrainsBlockedLongPoll(t *testing.T) {
	p := New(WithSites(20), WithWorkers(4), WithSnapshotEvery(8))
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	bound, err := p.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cur := strconv.FormatUint(p.ResultStore().Index(), 10)

	type result struct {
		idx  string
		code int
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + bound + "/v1/tables/retention?index=" + cur + "&wait=30s")
		if err != nil {
			got <- result{err: err}
			return
		}
		resp.Body.Close()
		got <- result{idx: resp.Header.Get("X-Result-Index"), code: resp.StatusCode}
	}()
	// Let the client reach the store and park.
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v; the parked long-poll was not released", elapsed)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("long-poll client dropped during Shutdown: %v", r.err)
		}
		if r.code != http.StatusOK || r.idx != cur {
			t.Fatalf("released poll: status %d index %q, want 200 at index %q", r.code, r.idx, cur)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll client still blocked after Shutdown")
	}
}

// TestCheckpointJournaledPipelineMatchesPlain: switching checkpointing
// on (fresh directory, no resume) must not change a byte of Results.
func TestCheckpointJournaledPipelineMatchesPlain(t *testing.T) {
	pp := New(checkpointOpts(4)...)
	plain, err := pp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pp.Net.Faults() == 0 {
		t.Fatal("the fabric injected no fault; the comparison is vacuous")
	}
	ck := New(append(checkpointOpts(4), WithCheckpoint(t.TempDir()))...)
	res, err := ck.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stableJSON(t, res) != stableJSON(t, plain) {
		t.Fatal("checkpointed run Results diverge from plain run")
	}
	st, ok := ck.CheckpointStats()
	if !ok || st.Records == 0 || st.BytesWritten == 0 || st.Fsyncs == 0 {
		t.Fatalf("journal IO not accounted: %+v (ok=%v)", st, ok)
	}
}
