package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cookieguard/internal/contenthash"
)

func rec(site, pass int, ok bool) Record {
	return Record{
		Vantage: "eu-west", Persona: "accept",
		Site: site, Pass: pass, OK: ok,
		VirtualMs: float64(site) * 1.5,
		Hosts:     []HostCount{{Host: "cdn.example", Transient: 1}},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i, 1, i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	snap := LaneSnapshot{
		Vantage: "eu-west", Persona: "accept", Outcomes: 5, Popped: 7,
		VClockMs:   123.5,
		Circuits:   []CircuitState{{Host: "cdn.example", State: 1, Failures: 3, OpenedMs: 99}},
		SecondPass: []SitePass{{Site: 2, Pass: 2}},
	}
	if err := j.AppendSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Units(); got != 5 {
		t.Fatalf("loaded %d units, want 5", got)
	}
	r, ok := j2.Lookup(Key{Vantage: "eu-west", Persona: "accept", Site: 3, Pass: 1})
	if !ok {
		t.Fatal("unit (3,1) not found after reopen")
	}
	want := rec(3, 1, false)
	if r.VirtualMs != want.VirtualMs || len(r.Hosts) != 1 || r.Hosts[0] != want.Hosts[0] || r.OK {
		t.Fatalf("reloaded record mismatch: %+v", r)
	}
	// The same snapshot recomputed on "resume" verifies silently; a
	// different Popped is still a match (excluded from the digest)…
	resnap := snap
	resnap.Popped = 99
	if err := j2.AppendSnapshot(resnap); err != nil {
		t.Fatalf("identical snapshot should verify: %v", err)
	}
	// …but diverged deterministic state must fail loudly.
	bad := snap
	bad.VClockMs = 124
	if err := j2.AppendSnapshot(bad); !errors.Is(err, ErrDiverged) {
		t.Fatalf("diverged snapshot: got %v, want ErrDiverged", err)
	}
	if st := j2.Stats(); st.Replayed != 1 || st.LoadedUnits != 5 {
		t.Fatalf("stats after lookup: %+v", st)
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(dir, "fp-b"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("got %v, want ErrFingerprint", err)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(rec(i, 1, true)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, FileName)
	// Simulate a crash mid-write: append half a line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"unit":{"site":`)
	f.Close()
	before, _ := os.ReadFile(path)

	j2, err := Open(dir, "fp")
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer j2.Close()
	if got := j2.Units(); got != 3 {
		t.Fatalf("loaded %d units, want 3 (torn tail dropped)", got)
	}
	after, _ := os.ReadFile(path)
	if len(after) >= len(before) {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", len(before), len(after))
	}
}

func TestJournalKillAfter(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j.SetKillAfter(2)
	if err := j.Append(rec(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(1, 1, true)); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("kill-point append: got %v, want ErrCrashInjected", err)
	}
	// Dead journal: everything fails, nothing is written.
	if err := j.Append(rec(2, 1, true)); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("post-crash append: got %v", err)
	}
	if err := j.AppendSnapshot(LaneSnapshot{Outcomes: 1}); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("post-crash snapshot: got %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("post-crash sync: got %v", err)
	}
	j.Close()

	// The killed journal still holds both records it wrote (the kill
	// record itself is durable: writes precede the kill check).
	j2, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Units(); got != 2 {
		t.Fatalf("loaded %d units after injected crash, want 2", got)
	}
}

func TestJournalRequeuedRecordHasNoLog(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Site: 4, Pass: 1, Requeue: true, Failure: "timeout"}
	if err := j.Append(r); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok := j2.Lookup(Key{Site: 4, Pass: 1})
	if !ok || !got.Requeue || got.Failure != "timeout" {
		t.Fatalf("requeued record: %+v ok=%v", got, ok)
	}
}

// TestJournalLoadsStoredLogRecords: journals written while unit
// records could carry the encoded visit log still open. A hash-valid
// unit line with "log" and "log_sum" keys loads its feedback fields,
// the log keys are ignored (a log_sum that does not match the log is no
// longer checked), and nothing appended afterwards carries them.
func TestJournalLoadsStoredLogRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"unit":{"v":"eu-west","p":"accept","site":3,"pass":1,"ok":true,"virtual_ms":4.5,` +
			`"hosts":[{"h":"cdn.example","ok":2}],"log":{"site":"a.example","ok":true},` +
			`"log_sum":"` + contenthash.Sum(`{"site":"a.example","ok":true}`) + `"}}`,
		`{"unit":{"site":4,"pass":1,"log":{"site":"b.example"},"log_sum":"0123456789abcdef0123456789abcdef"}}`,
	} {
		f.Write(append(contenthash.AppendSum(nil, []byte(body)), ' '))
		f.WriteString(body + "\n")
	}
	f.Close()

	j2, err := Open(dir, "fp")
	if err != nil {
		t.Fatalf("journal with stored-log unit lines must open: %v", err)
	}
	if got := j2.Units(); got != 2 {
		t.Fatalf("loaded %d units, want 2", got)
	}
	r, ok := j2.Lookup(Key{Vantage: "eu-west", Persona: "accept", Site: 3, Pass: 1})
	if !ok || !r.OK || r.VirtualMs != 4.5 || len(r.Hosts) != 1 || r.Hosts[0] != (HostCount{Host: "cdn.example", OK: 2}) {
		t.Fatalf("stored-log record feedback: %+v ok=%v", r, ok)
	}
	if err := j2.Append(rec(5, 1, true)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	raw, _ := os.ReadFile(path)
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if last := lines[len(lines)-1]; bytes.Contains(last, []byte(`"log`)) {
		t.Fatalf("appended line carries a log key: %s", last)
	}
}

func TestJournalFsyncBatching(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	base := j.Stats().Fsyncs // the header's
	for i := 0; i < DefaultFsyncEvery-1; i++ {
		if err := j.Append(rec(i, 1, true)); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Fsyncs; got != base {
		t.Fatalf("fsynced %d times before the batch filled (base %d)", got, base)
	}
	if err := j.Append(rec(DefaultFsyncEvery, 1, true)); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Fsyncs; got != base+1 {
		t.Fatalf("batch boundary: %d fsyncs, want %d", got, base+1)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil { // clean: nothing pending, no extra fsync
		t.Fatal(err)
	}
}
