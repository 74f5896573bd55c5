package crawler

// Tests for crash-safe checkpointing at the crawler layer: journaled
// runs emit the same bytes as unjournaled ones, a crawl killed at a
// seeded unit count resumes to byte-identical records and scheduler
// decisions (across worker counts, clean and faulted, with breaker +
// autopilot + personas + second pass), resuming a complete journal
// re-derives everything without appending a record, and journals whose
// unit lines still carry an encoded visit log resume the same way.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cookieguard/internal/browser"
	"cookieguard/internal/contenthash"
	"cookieguard/internal/instrument"
	"cookieguard/internal/journal"
	"cookieguard/internal/netsim"
)

// ckptFaults is the fault schedule of the faulted checkpoint crawls.
var ckptFaults = netsim.UniformFaults(0.35, 99)

// ckptOptions is the full-stack scheduler shape the crash matrix runs
// under: retries, second pass, breaker with autopilot, two vantages
// crawling under faults (the zero config crawls clean), two personas.
func ckptOptions(in *netsim.Internet, workers int, faults netsim.FaultConfig) Options {
	return Options{
		Internet:   in,
		Workers:    workers,
		Seed:       5,
		Interact:   true,
		Retry:      browser.RetryPolicy{MaxAttempts: 2},
		SecondPass: true,
		Breaker:    Breaker{Enabled: true, RoundVisits: 8, Autopilot: true},
		Vantages: []netsim.Vantage{
			{Name: "eu-west", Faults: faults},
			{Name: "us-east", Faults: faults},
		},
		Personas: []string{"accept", "reject"},
		Stats:    &SchedStats{},
	}
}

// unitKey keys a record by its full identity.
func unitKey(l instrument.VisitLog) string {
	return l.Site + "\x00" + l.Vantage + "\x00" + l.Persona
}

// recordMap marshals every log keyed by (site, vantage, persona).
func recordMap(t *testing.T, logs []instrument.VisitLog) map[string]string {
	t.Helper()
	out := make(map[string]string, len(logs))
	for _, l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		k := unitKey(l)
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate record %q", k)
		}
		out[k] = string(b)
	}
	return out
}

// mustMatch asserts two record maps and sched snapshots are identical.
func mustMatch(t *testing.T, label string, want, got map[string]string, ws, gs SchedSnapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(want), len(got))
	}
	for k, rec := range want {
		if got[k] != rec {
			t.Fatalf("%s: records differ for %q:\nwant: %s\ngot:  %s", label, k, rec, got[k])
		}
	}
	wj, _ := json.Marshal(ws)
	gj, _ := json.Marshal(gs)
	if string(wj) != string(gj) {
		t.Fatalf("%s: sched snapshots differ:\nwant: %s\ngot:  %s", label, wj, gj)
	}
}

// TestCheckpointJournaledRunMatchesUnjournaled: enabling the journal on
// a fresh directory must not change a single emitted byte or scheduler
// decision, and every terminal unit must land in the journal.
func TestCheckpointJournaledRunMatchesUnjournaled(t *testing.T) {
	w, sites := buildSites(t, 30)
	in := w.BuildInternet()

	base := ckptOptions(in, 4, ckptFaults)
	res, err := crawlAll(context.Background(), sites, base)
	if err != nil {
		t.Fatal(err)
	}
	want := recordMap(t, res)
	wantSnap := base.Stats.Snapshot()
	if faultedRecords(t, want) == 0 {
		t.Fatal("no record shows an injected fault; the comparison is vacuous")
	}

	jnl, err := journal.Open(t.TempDir(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	jopts := ckptOptions(in, 4, ckptFaults)
	jopts.Journal = jnl
	jres, err := crawlAll(context.Background(), sites, jopts)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "journaled vs plain", want, recordMap(t, jres), wantSnap, jopts.Stats.Snapshot())

	st := jnl.Stats()
	wantUnits := int64(len(want)) + wantSnap.Requeued
	if st.Records != wantUnits {
		t.Fatalf("journal holds %d unit records, want %d (logs %d + requeued %d)",
			st.Records, wantUnits, len(want), wantSnap.Requeued)
	}
	if st.Snapshots == 0 {
		t.Fatal("no lane snapshots were journaled")
	}
	if st.BytesWritten == 0 || st.Fsyncs == 0 {
		t.Fatalf("journal IO not accounted: %+v", st)
	}
}

// schedGolden is the slice of a SchedSnapshot that scheduler tests pin
// to absolute values: the counters the dispatcher's shed and resolve
// paths add to, plus the visits and circuit openings around them.
type schedGolden struct {
	Visits, ShedVisits, ShedFetches, Requeued, SecondPassKept, Opened int64
}

func goldenOf(s SchedSnapshot) schedGolden {
	return schedGolden{
		Visits: s.Visits, ShedVisits: s.ShedVisits, ShedFetches: s.ShedFetches,
		Requeued: s.Requeued, SecondPassKept: s.SecondPassKept, Opened: s.Opened,
	}
}

// TestCheckpointCrashResumeMatrix is the crash matrix from the issue:
// kill the crawl at seeded unit counts (early, mid, and — faulted —
// during the second pass) at worker counts {1, 8}, resume at a third
// worker count, and require records and scheduler decisions
// byte-identical to the uninterrupted run. Runs clean and at fault
// rate 0.35 with the full breaker + autopilot + personas shape.
func TestCheckpointCrashResumeMatrix(t *testing.T) {
	w, sites := buildSites(t, 30)
	for _, tc := range []struct {
		name    string
		faulted bool
		// sched pins the uninterrupted run's scheduler counters, so a
		// change that double-counts (or drops) a shed, requeue or kept
		// re-crawl fails here even when every run agrees with the others.
		sched schedGolden
	}{
		{"clean", false, schedGolden{Visits: 120}},
		{"faulted", true, schedGolden{Visits: 136, ShedFetches: 60, Requeued: 16, SecondPassKept: 4, Opened: 28}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := w.BuildInternet()
			var faults netsim.FaultConfig
			if tc.faulted {
				faults = ckptFaults
			}
			base := ckptOptions(in, 4, faults)
			res, err := crawlAll(context.Background(), sites, base)
			if err != nil {
				t.Fatal(err)
			}
			want := recordMap(t, res)
			wantSnap := base.Stats.Snapshot()
			if got := goldenOf(wantSnap); got != tc.sched {
				t.Fatalf("scheduler counters moved:\ngot:  %+v\nwant: %+v", got, tc.sched)
			}
			total := len(want) + int(wantSnap.Requeued)
			if tc.faulted && wantSnap.Requeued < 2 {
				t.Fatalf("only %d requeues at this fault rate; late kill would miss the second pass", wantSnap.Requeued)
			}

			kills := []struct {
				name string
				at   int
			}{
				{"early", 3},
				{"mid", total / 2},
				{"late", total - 2}, // faulted: inside the second pass
			}
			for _, kp := range kills {
				for _, workers := range []int{1, 8} {
					kp, workers := kp, workers
					t.Run(fmt.Sprintf("%s/w%d", kp.name, workers), func(t *testing.T) {
						dir := t.TempDir()
						jnl, err := journal.Open(dir, "fp")
						if err != nil {
							t.Fatal(err)
						}
						copts := ckptOptions(in, workers, faults)
						copts.Journal = jnl
						copts.CrashAfterUnits = kp.at
						if _, err := crawlAll(context.Background(), sites, copts); !errors.Is(err, ErrCrashInjected) {
							t.Fatalf("crashed run: got %v, want ErrCrashInjected", err)
						}
						jnl.Close()

						// Resume at a worker count used by neither the
						// baseline nor the crashed run.
						rj, err := journal.Open(dir, "fp")
						if err != nil {
							t.Fatal(err)
						}
						defer rj.Close()
						if rj.Units() == 0 {
							t.Fatal("crashed journal is empty; nothing was persisted")
						}
						ropts := ckptOptions(in, 5, faults)
						ropts.Journal = rj
						rres, err := crawlAll(context.Background(), sites, ropts)
						if err != nil {
							t.Fatalf("resume: %v", err)
						}
						mustMatch(t, "resumed vs uninterrupted", want,
							recordMap(t, rres), wantSnap, ropts.Stats.Snapshot())
						if rj.Stats().Replayed == 0 {
							t.Fatal("resume replayed nothing from the journal")
						}
					})
				}
			}
		})
	}
}

// fullJournal crawls sites under the full faulted stack with a journal
// in dir and returns the records and scheduler snapshot the resumes must
// match.
func fullJournal(t *testing.T, in *netsim.Internet, sites []string, dir string) (map[string]string, SchedSnapshot) {
	t.Helper()
	jnl, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	opts := ckptOptions(in, 4, ckptFaults)
	opts.Journal = jnl
	res, err := crawlAll(context.Background(), sites, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordMap(t, res)
	if faultedRecords(t, recs) == 0 {
		t.Fatal("no record shows an injected fault; the resume check is vacuous")
	}
	return recs, opts.Stats.Snapshot()
}

// resumeFull resumes the journal in dir at a different worker count,
// requires the uninterrupted run's records and scheduler snapshot, and
// returns the resumed journal's stats.
func resumeFull(t *testing.T, in *netsim.Internet, sites []string, dir string, want map[string]string, wantSnap SchedSnapshot) journal.Stats {
	t.Helper()
	rj, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	ropts := ckptOptions(in, 8, ckptFaults)
	ropts.Journal = rj
	rres, err := crawlAll(context.Background(), sites, ropts)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "full resume", want, recordMap(t, rres), wantSnap, ropts.Stats.Snapshot())
	return rj.Stats()
}

// TestCheckpointFullReplayAppendsNothing: resuming a journal that
// already holds every unit re-derives the whole crawl — identical
// records, every loaded unit consumed, and zero new unit records.
func TestCheckpointFullReplayAppendsNothing(t *testing.T) {
	w, sites := buildSites(t, 30)
	in := w.BuildInternet()
	dir := t.TempDir()
	want, wantSnap := fullJournal(t, in, sites, dir)
	st := resumeFull(t, in, sites, dir, want, wantSnap)
	if st.Records != 0 {
		t.Fatalf("full replay appended %d new unit records, want 0", st.Records)
	}
	if st.Replayed != int64(st.LoadedUnits) || st.LoadedUnits == 0 {
		t.Fatalf("replayed %d of %d loaded units", st.Replayed, st.LoadedUnits)
	}
}

// addStoredLogs rewrites every unit line of the journal in dir the way
// journals were written when unit records could carry the encoded visit
// log: each gains "log" and "log_sum" keys and a fresh line hash.
func addStoredLogs(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, journal.FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	units := 0
	for _, ln := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(ln) == 0 {
			continue
		}
		body := bytes.TrimSuffix(ln[contenthash.Size+1:], []byte("\n"))
		var env map[string]map[string]any
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if u, ok := env["unit"]; ok && u["requeue"] == nil {
			log := fmt.Sprintf(`{"site":"site-%v.example","ok":true}`, u["site"])
			u["log"] = json.RawMessage(log)
			u["log_sum"] = contenthash.Sum(log)
			if body, err = json.Marshal(env); err != nil {
				t.Fatal(err)
			}
			units++
		}
		out = contenthash.AppendSum(out, body)
		out = append(out, ' ')
		out = append(append(out, body...), '\n')
	}
	if units == 0 {
		t.Fatal("journal holds no unit lines to rewrite")
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumesStoredLogJournal: a complete journal whose unit
// lines carry encoded visit logs still opens, and its units resume by
// re-executing and verifying — the crawl visits the fabric again,
// consumes every loaded unit, appends nothing, and emits the
// uninterrupted run's bytes.
func TestCheckpointResumesStoredLogJournal(t *testing.T) {
	w, sites := buildSites(t, 30)
	in := w.BuildInternet()
	dir := t.TempDir()
	want, wantSnap := fullJournal(t, in, sites, dir)
	addStoredLogs(t, dir)

	before := in.Requests()
	st := resumeFull(t, in, sites, dir, want, wantSnap)
	if in.Requests() == before {
		t.Fatal("resume made no fabric requests; journaled units were not re-executed")
	}
	if st.Records != 0 {
		t.Fatalf("resume appended %d unit records, want 0", st.Records)
	}
	if st.Replayed != int64(st.LoadedUnits) || st.LoadedUnits == 0 {
		t.Fatalf("consumed %d of %d loaded units", st.Replayed, st.LoadedUnits)
	}
}

// TestCheckpointRequeueWithoutSecondPassDiverges: a journaled requeue
// can only come from a second-pass crawl, so resuming one in a crawl
// without the second pass fails with ErrDiverged — on the continuous
// lane and on the breaker lane — instead of folding it.
func TestCheckpointRequeueWithoutSecondPassDiverges(t *testing.T) {
	w, sites := buildSites(t, 6)
	in := w.BuildInternet()
	for _, tc := range []struct {
		name    string
		breaker Breaker
	}{
		{"continuous", Breaker{}},
		{"breaker", Breaker{Enabled: true, RoundVisits: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jnl, err := journal.Open(dir, "fp")
			if err != nil {
				t.Fatal(err)
			}
			if err := jnl.Append(journal.Record{Site: 2, Pass: 1, Requeue: true, Failure: "timeout"}); err != nil {
				t.Fatal(err)
			}
			jnl.Close()
			if jnl, err = journal.Open(dir, "fp"); err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			_, err = crawlAll(context.Background(), sites, Options{
				Internet: in, Workers: 2, Seed: 5, Journal: jnl, Breaker: tc.breaker,
			})
			if !errors.Is(err, journal.ErrDiverged) {
				t.Fatalf("got %v, want ErrDiverged", err)
			}
		})
	}
}

// TestCrashAfterUnitsRequiresJournal: crash injection without a journal
// is a configuration error, not a silent no-op.
func TestCrashAfterUnitsRequiresJournal(t *testing.T) {
	w, sites := buildSites(t, 5)
	_, err := crawlAll(context.Background(), sites, Options{
		Internet:        w.BuildInternet(),
		Workers:         2,
		CrashAfterUnits: 3,
	})
	if err == nil {
		t.Fatal("CrashAfterUnits without Journal must error")
	}
}

// TestCheckpointContinuousLaneResume: the journal also covers the
// continuous (no-breaker) scheduling path — crash and resume a plain
// crawl with no rounds, no second pass, no personas.
func TestCheckpointContinuousLaneResume(t *testing.T) {
	w, sites := buildSites(t, 25)
	in := w.BuildInternet()
	base := Options{Internet: in, Workers: 4, Seed: 5, Stats: &SchedStats{}}
	res, err := crawlAll(context.Background(), sites, base)
	if err != nil {
		t.Fatal(err)
	}
	want := recordMap(t, res)
	wantSnap := base.Stats.Snapshot()

	dir := t.TempDir()
	jnl, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	copts := Options{Internet: in, Workers: 8, Seed: 5, Journal: jnl, CrashAfterUnits: 10, Stats: &SchedStats{}}
	if _, err := crawlAll(context.Background(), sites, copts); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crashed run: got %v, want ErrCrashInjected", err)
	}
	jnl.Close()

	rj, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	ropts := Options{Internet: in, Workers: 1, Seed: 5, Journal: rj, Stats: &SchedStats{}}
	rres, err := crawlAll(context.Background(), sites, ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	mustMatch(t, "continuous resume", want, recordMap(t, rres), wantSnap, ropts.Stats.Snapshot())
}
