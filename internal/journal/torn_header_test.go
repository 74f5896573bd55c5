package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// readJournal returns the raw bytes of dir's journal file.
func readJournal(t testing.TB, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeJournal replaces dir's journal file with raw.
func writeJournal(t testing.TB, dir string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, FileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A crash during the very first write can tear the header line at any
// byte. Every prefix of the header must open as an empty journal that
// is immediately usable, not fail.
func TestJournalTornHeaderEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp-torn")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	full := readJournal(t, dir)
	for cut := 0; cut < len(full); cut++ {
		d2 := t.TempDir()
		writeJournal(t, d2, full[:cut])
		j2, err := Open(d2, "fp-torn")
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		if got := j2.Units(); got != 0 {
			t.Fatalf("cut=%d: loaded %d units from a torn header, want 0", cut, got)
		}
		if err := j2.Append(rec(0, 1, true)); err != nil {
			t.Fatalf("cut=%d: append after torn-header open: %v", cut, err)
		}
		j2.Close()
		// The rewritten journal must reopen cleanly with the record.
		j3, err := Open(d2, "fp-torn")
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}
		if got := j3.Units(); got != 1 {
			t.Fatalf("cut=%d: reopened with %d units, want 1", cut, got)
		}
		j3.Close()
	}
}

// A journal whose header line was lost entirely — the first durable
// line is a unit record — has no fingerprint to trust its records
// against. It must open as empty (torn from the start), not fail.
func TestJournalUnitBeforeHeaderOpensEmpty(t *testing.T) {
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
	raw := readJournal(t, dir)
	// Strip the header line, leaving hash-valid unit lines first.
	nl := 0
	for raw[nl] != '\n' {
		nl++
	}
	writeJournal(t, dir, raw[nl+1:])

	j2, err := Open(dir, "fp")
	if err != nil {
		t.Fatalf("unit-before-header must open as empty, got: %v", err)
	}
	defer j2.Close()
	if got := j2.Units(); got != 0 {
		t.Fatalf("loaded %d units from a headerless journal, want 0", got)
	}
	if _, ok := j2.Lookup(Key{Vantage: "eu-west", Persona: "accept", Site: 0, Pass: 1}); ok {
		t.Fatal("headerless journal's records must not enter the resume set")
	}
}

// Same for a snapshot line: first durable line is a lane snapshot.
func TestJournalSnapshotBeforeHeaderOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSnapshot(LaneSnapshot{Vantage: "eu-west", Outcomes: 4, VClockMs: 9.5}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw := readJournal(t, dir)
	nl := 0
	for raw[nl] != '\n' {
		nl++
	}
	writeJournal(t, dir, raw[nl+1:])

	j2, err := Open(dir, "fp")
	if err != nil {
		t.Fatalf("snapshot-before-header must open as empty, got: %v", err)
	}
	defer j2.Close()
	// The orphaned snapshot must not have entered the verification map:
	// a fresh snapshot at the same fold count appends (and any state
	// matches, because nothing was loaded to diverge from).
	if err := j2.AppendSnapshot(LaneSnapshot{Vantage: "eu-west", Outcomes: 4, VClockMs: 1234}); err != nil {
		t.Fatalf("fresh snapshot after torn-header open: %v", err)
	}
}
