package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"cookieguard/internal/contenthash"
)

// openOracle says what Open(dir, fingerprint) must do with a journal file
// holding file: load the units of the file's valid prefix and truncate
// the file to its n bytes, or fail with err.
func openOracle(file []byte, fingerprint string) (n int, units map[Key]*Record, err error) {
	units = map[Key]*Record{}
	sawHeader := false
	for off := 0; ; {
		end := bytes.IndexByte(file[off:], '\n')
		if end < 0 {
			return n, units, nil // torn tail
		}
		sum, body, _ := bytes.Cut(file[off:off+end], []byte(" "))
		off += end + 1
		var l line
		if string(sum) != contenthash.Sum(string(body)) || json.Unmarshal(body, &l) != nil {
			return n, units, nil
		}
		switch {
		case l.Header != nil && l.Unit == nil && l.Snap == nil:
			if sawHeader {
				return 0, nil, errDuplicateHeader
			}
			if l.Header.Fingerprint != fingerprint {
				return 0, nil, ErrFingerprint
			}
			sawHeader = true
		case l.Header == nil && (l.Unit == nil) != (l.Snap == nil):
			if !sawHeader {
				return 0, map[Key]*Record{}, nil // torn header: open empty
			}
			if l.Unit != nil {
				units[l.Unit.Key()] = l.Unit
			}
		default:
			return n, units, nil // no payload, or more than one
		}
		n = off
	}
}

// FuzzOpen opens a journal file made of raw followed by one line per
// newline-separated body in bodies, each behind its valid hash, so the
// decoder also sees garbage that passes the hash check. Open must not
// panic, and must either load exactly the valid prefix's units and
// truncate the file to that prefix, or fail with ErrFingerprint or the
// duplicate-header error, as openOracle says.
func FuzzOpen(f *testing.F) {
	const fp = "fp-fuzz"
	dir := f.TempDir()
	j, err := Open(dir, fp)
	if err != nil {
		f.Fatal(err)
	}
	fresh := readJournal(f, dir)
	for i := 0; i < 3; i++ {
		if err := j.Append(rec(i, 1+i%2, i%2 == 0)); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.AppendSnapshot(LaneSnapshot{
		Vantage: "eu-west", Persona: "accept", Outcomes: 3, Popped: 4, VClockMs: 12.5,
		Circuits:   []CircuitState{{Host: "cdn.example", State: 1, Failures: 2}},
		SecondPass: []SitePass{{Site: 1, Pass: 2}},
	}); err != nil {
		f.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		f.Fatal(err)
	}
	written := readJournal(f, dir)
	j.Close()
	if len(fresh) == 0 || len(written) <= len(fresh) {
		f.Fatal("seed journal not written")
	}

	var bodies [][]byte
	for _, ln := range bytes.Split(bytes.TrimSuffix(written, []byte("\n")), []byte("\n")) {
		bodies = append(bodies, ln[contenthash.Size+1:])
	}
	f.Add(written, []byte(nil))
	f.Add([]byte(nil), bytes.Join(bodies, []byte("\n")))
	f.Add(written[:len(written)-7], []byte(nil))
	for _, extra := range []string{
		`{}`,
		`null`,
		`{"unit":{"site":9,"pass":1},"snap":{"outcomes":1}}`,
		`{"header":{"version":1,"fingerprint":"fp-fuzz"},"unit":{"site":9,"pass":1}}`,
		`{"header":{"version":1,"fingerprint":"fp-fuzz"}}`,
		`{"unit":{"site":"nine"}}`,
	} {
		f.Add(written, []byte(extra+"\n"+string(bodies[1])))
	}
	f.Add([]byte(nil), []byte(`{"header":{"version":1,"fingerprint":"other"}}`))
	f.Add([]byte(nil), bytes.Join(bodies[1:], []byte("\n")))

	// Inputs run one at a time in each process, so they share the seed's
	// directory: a directory per input costs more I/O than Open.
	f.Fuzz(func(t *testing.T, raw, bodies []byte) {
		file := append([]byte(nil), raw...)
		if len(bodies) > 0 {
			for _, b := range bytes.Split(bodies, []byte("\n")) {
				file = contenthash.AppendSum(file, b)
				file = append(file, ' ')
				file = append(file, b...)
				file = append(file, '\n')
			}
		}
		wantN, wantUnits, wantErr := openOracle(file, fp)
		writeJournal(t, dir, file)
		j, err := Open(dir, fp)
		if wantErr != nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("Open = %v, want %v", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open = %v, want the journal truncated to %d bytes", err, wantN)
		}
		defer j.Close()
		if !reflect.DeepEqual(j.units, wantUnits) {
			t.Fatalf("loaded units %v, want %v", j.units, wantUnits)
		}
		want := file[:wantN]
		if wantN == 0 {
			want = fresh // nothing valid: Open starts the journal afresh
		}
		if got := readJournal(t, dir); !bytes.Equal(got, want) {
			t.Fatalf("journal after Open:\n%q\nwant\n%q", got, want)
		}
	})
}
