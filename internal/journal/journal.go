// Package journal implements the crawl's write-ahead unit journal —
// the durable core of crash-safe checkpointing and resume.
//
// The journal records exactly two kinds of fact, both append-only:
//
//   - a compact unit record per crawl-plan unit (site, vantage,
//     persona, pass) that reached a terminal outcome: the scheduler
//     feedback the dispatcher folded (ok, requeue, failure class,
//     virtual duration, shed-fetch count, per-host accounting), never
//     the visit log itself;
//   - a lane snapshot per (lane, fold count): the scheduler state a
//     lane owns — frontier position, breaker virtual clock, per-host
//     circuit (and autopilot) state, the second-pass set — written
//     periodically at round barriers (a stride of the fold count, so
//     crashed and resumed runs snapshot at identical points) and at
//     the lane's terminal fold.
//
// That split is the checkpoint-and-replay resiliency pattern: persist
// the minimal durable state (each unit's outcome), recompute the rest
// deterministically. Because every visit's bytes depend only on (url,
// seed, pass, vantage, persona, gate snapshot), a resumed crawl does
// not restore scheduler state from snapshots — it re-runs the exact
// same dispatch. A journaled unit re-executes its visit
// deterministically and the fresh outcome is verified field-for-field
// against its record; a requeued first-pass unit, whose record the
// second pass supersedes, folds its journaled feedback without
// re-visiting. Either way the scheduler state re-derives identically
// and the output is byte-identical to an uninterrupted run. Each
// record costs a few hundred bytes. The snapshots serve as integrity
// checks: when a resumed lane's
// fold count matches a journaled snapshot, the recomputed state must
// digest-match it, or the journal belongs to a diverged run
// (ErrDiverged).
//
// On disk the journal is one line-oriented file: each line is the
// record's 128-bit FNV content hash (32 hex chars), a space, and the
// record JSON. A reader validates every line's hash and stops at the
// first invalid one, so a torn tail — the normal residue of a crash
// mid-write — truncates cleanly to the last durable record. A line whose
// hash is valid but whose JSON is not exactly one record ends the valid
// prefix the same way. The first line is a header carrying a
// fingerprint of the crawl configuration; opening a journal against a
// different configuration fails (ErrFingerprint) rather than replaying
// foreign outcomes.
//
// Writes are buffered in user space and flushed+fsynced together —
// every FsyncEvery records plus explicit Sync calls (graceful
// shutdown always Syncs) — so a hard kill loses at most the last
// unflushed batch, whose units simply re-run on resume; per-record
// write syscalls were measured to cost more than the rest of
// journaling combined on a CPU-bound crawl.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"cookieguard/internal/contenthash"
)

// FileName is the journal file inside the checkpoint directory.
const FileName = "crawl.waj"

// DefaultFsyncEvery is the durability quantum: records are buffered in
// user space and one flush+fsync covers this many appends (plus
// explicit Sync calls). A crash between fsyncs loses at most the
// quantum's records — a bounded re-execution window on resume, traded
// against per-record write and fsync syscalls that would otherwise
// dominate journaling cost on fast crawls.
const DefaultFsyncEvery = 256

const formatVersion = 1

var (
	// ErrCrashInjected is returned by every journal operation after the
	// SetKillAfter kill-point fired: the journal is dead, exactly as a
	// crashed process would have left it — no final snapshots, no
	// trailing fsync.
	ErrCrashInjected = errors.New("journal: injected crash (kill-point reached)")
	// ErrDiverged means a lane snapshot recomputed on resume does not
	// match the journaled snapshot at the same fold count: the journal
	// was written by a run whose scheduler state evolved differently
	// (different code, tampered file), so replaying it would produce
	// silently wrong records.
	ErrDiverged = errors.New("journal: lane snapshot diverged from journaled state")
	// ErrFingerprint means the journal on disk was written by a crawl
	// with a different configuration; resuming it would mix outcomes
	// from two different crawls.
	ErrFingerprint = errors.New("journal: configuration fingerprint mismatch")
	// errDuplicateHeader means a second hash-valid header line follows
	// the first. Open never writes one, so the file is not the journal
	// of one crawl.
	errDuplicateHeader = errors.New("journal: duplicate header")
)

// Key identifies one journaled unit: the crawl-plan unit (site,
// vantage, persona) at one crawl pass.
type Key struct {
	Vantage string
	Persona string
	Site    int
	Pass    int
}

// HostCount mirrors browser.HostOutcome: one visit's per-host fetch
// accounting, the breaker's fold input.
type HostCount struct {
	Host      string `json:"h"`
	Transient int    `json:"t,omitempty"`
	OK        int    `json:"ok,omitempty"`
}

// Record is one unit's terminal outcome: the scheduler feedback the
// dispatcher folds. Journals written before the visit log left the
// record may still carry "log" and "log_sum" keys; decoding ignores
// them.
type Record struct {
	Vantage     string      `json:"v,omitempty"`
	Persona     string      `json:"p,omitempty"`
	Site        int         `json:"site"`
	Pass        int         `json:"pass"`
	OK          bool        `json:"ok,omitempty"`
	Requeue     bool        `json:"requeue,omitempty"`
	Failure     string      `json:"failure,omitempty"`
	VirtualMs   float64     `json:"virtual_ms,omitempty"`
	ShedFetches int64       `json:"shed_fetches,omitempty"`
	Hosts       []HostCount `json:"hosts,omitempty"`
}

// Key returns the record's unit key.
func (r *Record) Key() Key {
	return Key{Vantage: r.Vantage, Persona: r.Persona, Site: r.Site, Pass: r.Pass}
}

// CircuitState is one host circuit's full breaker (and autopilot)
// state inside a lane snapshot.
type CircuitState struct {
	Host       string  `json:"host"`
	State      uint8   `json:"state"`
	Failures   int     `json:"failures,omitempty"`
	OpenedMs   float64 `json:"opened_ms,omitempty"`
	SeenFail   bool    `json:"seen_fail,omitempty"`
	LastFailMs float64 `json:"last_fail_ms,omitempty"`
	IfiEwmaMs  float64 `json:"ifi_ewma_ms,omitempty"`
	IfiSamples int     `json:"ifi_samples,omitempty"`
	Reopens    int     `json:"reopens,omitempty"`
}

// SitePass is one second-pass set entry: a site and the pass its next
// dispatch belongs to.
type SitePass struct {
	Site int `json:"site"`
	Pass int `json:"pass"`
}

// LaneSnapshot is one lane's scheduler state at a fold count:
// everything the lane owns (PR 7/8) — breaker virtual clock, per-host
// circuit state, the second-pass set, and the frontier position
// (Popped). Popped is informational and excluded from the divergence
// digest: pops run ahead of folds by the in-flight window, so the
// count at a mid-round crash is timing-dependent while everything
// else is not.
type LaneSnapshot struct {
	Vantage    string         `json:"v,omitempty"`
	Persona    string         `json:"p,omitempty"`
	Outcomes   int            `json:"outcomes"`
	Popped     int            `json:"popped"`
	VClockMs   float64        `json:"vclock_ms,omitempty"`
	Circuits   []CircuitState `json:"circuits,omitempty"`
	SecondPass []SitePass     `json:"second_pass,omitempty"`
}

// digest is the snapshot's divergence check: a content hash over the
// deterministic fields (everything but Popped).
func (s *LaneSnapshot) digest() string {
	shadow := *s
	shadow.Popped = 0
	b, _ := json.Marshal(&shadow)
	return contenthash.Sum(string(b))
}

type snapKey struct {
	vantage, persona string
	outcomes         int
}

// Stats are the journal's lifetime counters for this process.
type Stats struct {
	// LoadedUnits is the resume set: unit records found on open.
	LoadedUnits int `json:"loaded_units"`
	// Replayed counts loaded units the crawl actually consumed — a
	// requeue folded from its record, or any other unit re-executed and
	// verified.
	Replayed int64 `json:"replayed"`
	// Records / Snapshots / BytesWritten / Fsyncs count this process's
	// appends (not what was loaded).
	Records      int64 `json:"records"`
	Snapshots    int64 `json:"snapshots"`
	BytesWritten int64 `json:"bytes_written"`
	Fsyncs       int64 `json:"fsyncs"`
}

type header struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// line is the on-disk envelope: exactly one of the payload fields set.
type line struct {
	Header *header       `json:"header,omitempty"`
	Unit   *Record       `json:"unit,omitempty"`
	Snap   *LaneSnapshot `json:"snap,omitempty"`
}

// payloads counts the envelope's set payload fields; a line whose count
// is not one is invalid.
func (l *line) payloads() int {
	n := 0
	for _, set := range []bool{l.Header != nil, l.Unit != nil, l.Snap != nil} {
		if set {
			n++
		}
	}
	return n
}

// Journal is an open write-ahead journal. Safe for concurrent use:
// Lookup reads the immutable load-time set, appends serialize on a
// mutex.
type Journal struct {
	units map[Key]*Record // immutable after Open

	mu         sync.Mutex
	f          *os.File
	w          *bufio.Writer      // line buffer; flushed by fsync and the kill-point
	ebuf       bytes.Buffer       // reused JSON encode target (writeLine holds mu)
	enc        *json.Encoder      // encodes into ebuf
	lbuf       []byte             // reused line-assembly buffer
	snaps      map[snapKey]string // digest per journaled snapshot
	stats      Stats
	replayed   int64
	fsyncEvery int
	sinceSync  int
	killAfter  int64
	appended   int64
	dead       bool
	closed     bool
}

// Open opens (creating if absent) the journal in dir and loads its
// durable state: unit records into the resume set, snapshots into the
// verification map. A torn tail — trailing bytes that do not form a
// hash-valid line holding exactly one record — is truncated away, and a
// torn header — durable records with no hash-valid header line before
// them — resets the journal to empty (there is no fingerprint to trust
// the records against). A non-empty journal whose header fingerprint
// differs from fingerprint fails with ErrFingerprint, and one with a
// second header line fails too.
func Open(dir, fingerprint string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		units:      map[Key]*Record{},
		f:          f,
		w:          bufio.NewWriterSize(f, 1<<16),
		snaps:      map[snapKey]string{},
		fsyncEvery: DefaultFsyncEvery,
	}
	j.enc = json.NewEncoder(&j.ebuf)
	if err := j.load(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load reads the journal file, validates every line, installs the
// durable state, and positions the file for appending (truncating any
// torn tail). On an empty file it writes the header.
func (j *Journal) load(fingerprint string) error {
	raw, err := io.ReadAll(j.f)
	if err != nil {
		return err
	}
	valid := 0 // byte offset of the last hash-valid line's end
	sawHeader := false
parse:
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn tail: no terminator
		}
		ln := raw[off : off+nl]
		if len(ln) < contenthash.Size+2 || ln[contenthash.Size] != ' ' {
			break
		}
		sum, body := string(ln[:contenthash.Size]), ln[contenthash.Size+1:]
		if !contenthash.Valid(sum) || contenthash.Sum(string(body)) != sum {
			break
		}
		var rec line
		if err := json.Unmarshal(body, &rec); err != nil || rec.payloads() != 1 {
			break // garbage behind a valid hash ends the prefix like a torn line
		}
		switch {
		case rec.Header != nil:
			if sawHeader {
				return fmt.Errorf("%w at offset %d", errDuplicateHeader, off)
			}
			if rec.Header.Fingerprint != fingerprint {
				return fmt.Errorf("%w: journal %s, crawl %s",
					ErrFingerprint, rec.Header.Fingerprint, fingerprint)
			}
			sawHeader = true
		case rec.Unit != nil:
			if !sawHeader {
				// A durable unit line with no header before it means the
				// header line itself was torn or lost. Without the header
				// there is no fingerprint to trust the records against, so
				// the journal is torn from the start: resume empty instead
				// of failing open.
				valid = 0
				break parse
			}
			u := rec.Unit
			j.units[u.Key()] = u // last wins: later runs append after earlier ones
		case rec.Snap != nil:
			if !sawHeader {
				valid = 0 // torn header; see the unit case
				break parse
			}
			s := rec.Snap
			j.snaps[snapKey{s.Vantage, s.Persona, s.Outcomes}] = s.digest()
		}
		off += nl + 1
		valid = off
	}
	if err := j.f.Truncate(int64(valid)); err != nil {
		return err
	}
	if _, err := j.f.Seek(int64(valid), io.SeekStart); err != nil {
		return err
	}
	j.stats.LoadedUnits = len(j.units)
	if !sawHeader {
		if err := j.writeLine(line{Header: &header{Version: formatVersion, Fingerprint: fingerprint}}); err != nil {
			return err
		}
		return j.fsync()
	}
	return nil
}

// Lookup returns the journaled record of a unit, if one was loaded at
// open — the resume set. Hits count toward Stats.Replayed.
func (j *Journal) Lookup(k Key) (*Record, bool) {
	r, ok := j.units[k]
	if ok {
		j.mu.Lock()
		j.replayed++
		j.mu.Unlock()
	}
	return r, ok
}

// Units returns the size of the resume set loaded at open.
func (j *Journal) Units() int { return len(j.units) }

// SetKillAfter arms the crash-injection kill-point: after n fresh unit
// records have been appended, the journal goes dead — every further
// operation returns ErrCrashInjected and writes nothing, exactly the
// journal a crashed process leaves behind (the buffered lines flush to
// the kernel, no trailing fsync or snapshot). Zero disarms.
func (j *Journal) SetKillAfter(n int) {
	j.mu.Lock()
	j.killAfter = int64(n)
	j.mu.Unlock()
}

// Append journals one fresh unit's terminal outcome. Fsync is batched;
// see the package doc.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrCrashInjected
	}
	if err := j.writeLine(line{Unit: &rec}); err != nil {
		return err
	}
	j.stats.Records++
	j.appended++
	if j.killAfter > 0 && j.appended >= j.killAfter {
		// Flush (no fsync) before going dead: the injected crash models
		// a process that died right after the kernel accepted its
		// buffered appends, so the kill-point's record count is exactly
		// what a resume finds durable — deterministic for the tests.
		j.w.Flush()
		j.dead = true
		return ErrCrashInjected
	}
	j.sinceSync++
	if j.sinceSync >= j.fsyncEvery {
		return j.fsync()
	}
	return nil
}

// AppendSnapshot journals one lane snapshot — or, when the journal
// already holds a snapshot at the same (lane, fold count), verifies
// the recomputed state against it: digest match is a successful resume
// integrity check (nothing is written), mismatch is ErrDiverged.
func (j *Journal) AppendSnapshot(s LaneSnapshot) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrCrashInjected
	}
	key := snapKey{s.Vantage, s.Persona, s.Outcomes}
	digest := s.digest()
	if prev, ok := j.snaps[key]; ok {
		if prev != digest {
			return fmt.Errorf("%w: lane %s/%s at fold %d", ErrDiverged, s.Vantage, s.Persona, s.Outcomes)
		}
		return nil
	}
	if err := j.writeLine(line{Snap: &s}); err != nil {
		return err
	}
	j.snaps[key] = digest
	j.stats.Snapshots++
	j.sinceSync++
	if j.sinceSync >= j.fsyncEvery {
		return j.fsync()
	}
	return nil
}

// Sync flushes every appended record to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrCrashInjected
	}
	if j.sinceSync == 0 {
		return nil
	}
	return j.fsync()
}

// Close syncs and closes the journal file. A dead (crash-injected)
// journal closes without syncing, like the process it simulates. Closing
// a closed journal does nothing; Stats still works after Close.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if !j.dead && j.sinceSync > 0 {
		if err := j.fsync(); err != nil {
			j.f.Close()
			return err
		}
	}
	return j.f.Close()
}

// Stats returns the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.Replayed = j.replayed
	return s
}

// writeLine appends one hash-prefixed line, <32-hex fnv128> <json>\n,
// to the user-space buffer; fsync (or the kill-point) pushes whole
// batches to the kernel. The flush's single write can still tear
// mid-line on a crash — which load detects and truncates.
// Both buffers are reused across calls (the caller holds j.mu), so the
// append path allocates nothing beyond the records themselves — at
// 2,000-site scale the per-line garbage otherwise costs whole GC
// cycles.
func (j *Journal) writeLine(l line) error {
	j.ebuf.Reset()
	if err := j.enc.Encode(&l); err != nil {
		return err
	}
	body := j.ebuf.Bytes() // JSON with Encode's trailing '\n'
	j.lbuf = contenthash.AppendSum(j.lbuf[:0], body[:len(body)-1])
	j.lbuf = append(j.lbuf, ' ')
	j.lbuf = append(j.lbuf, body...)
	n, err := j.w.Write(j.lbuf)
	j.stats.BytesWritten += int64(n)
	return err
}

func (j *Journal) fsync() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.stats.Fsyncs++
	j.sinceSync = 0
	return nil
}
