package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cookieguard"
	"cookieguard/internal/crawlflags"
	"cookieguard/internal/instrument"
)

// crawlArgs is the crawl TestFold folds: the 2,000-site web at the
// default seed, where a CDN-split site's two domains reach Table 5's
// top manipulators, so grouping by the default entity map shows.
var crawlArgs = []string{"-sites", "2000", "-workers", "2"}

// parentStdout is the SHA-256 of the report analyze printed for
// crawlArgs' records before logs carried a header.
const parentStdout = "810272f32641d5706e13deb7714b1bf24cfe3d302de4e671d8b742ed5dc44606"

// TestFold folds a log that cmd/crawl -o writes: with its header,
// without it, and joined to another log.
func TestFold(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the crawl binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "crawl")
	if out, err := exec.Command("go", "build", "-o", bin, "../crawl").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	logPath := filepath.Join(dir, "logs.jsonl")
	if out, err := exec.Command(bin, append(crawlArgs, "-o", logPath)...).CombinedOutput(); err != nil {
		t.Fatalf("crawl: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("header", func(t *testing.T) { foldMatchesPipeline(t, raw) })
	t.Run("headerless", func(t *testing.T) { headerlessFoldsAsBefore(t, raw) })
	t.Run("joined", func(t *testing.T) { joinedLogsNameOneWeb(t, raw) })
}

// foldMatchesPipeline: the header names the web, so the fold groups
// domains by the web's entity map and gets Pipeline.Run's StableJSON
// for the same crawl byte for byte.
func foldMatchesPipeline(t *testing.T, raw []byte) {
	var warn bytes.Buffer
	res, err := fold(bytes.NewReader(raw), &warn)
	if err != nil {
		t.Fatal(err)
	}
	if warn.Len() != 0 {
		t.Errorf("fold of a log with a header warned: %s", warn.String())
	}
	got, err := res.StableJSON()
	if err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	cf := crawlflags.Register(fs, 1000, "sites")
	if err := fs.Parse(crawlArgs); err != nil {
		t.Fatal(err)
	}
	ran, err := cookieguard.New(cf.Options()...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ran.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("folded log: StableJSON of %d bytes, sha256 %s; Pipeline.Run: %d bytes, sha256 %s",
			len(got), sum(got), len(want), sum(want))
	}
}

// headerlessFoldsAsBefore: the same records without their header, as
// cmd/crawl wrote them before logs carried one, fold with the default
// entity map to the report analyze always printed for them, and one
// line on stderr says so.
func headerlessFoldsAsBefore(t *testing.T, raw []byte) {
	_, records, _ := bytes.Cut(raw, []byte("\n"))
	var out, warn bytes.Buffer
	if err := run(bytes.NewReader(records), &out, &warn); err != nil {
		t.Fatal(err)
	}
	if got := sum(out.Bytes()); got != parentStdout {
		t.Errorf("headerless report has sha256 %s, want %s:\n%s", got, parentStdout, out.String())
	}
	if w := warn.String(); strings.Count(w, "\n") != 1 || !strings.Contains(w, "no header") {
		t.Errorf("stderr = %q, want one line saying the log has no header", w)
	}
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// joinedLogsNameOneWeb: logs joined end to end fold as one when every
// header names the same web, as they did before logs carried headers,
// and are an error when a header names another web.
func joinedLogsNameOneWeb(t *testing.T, raw []byte) {
	lines := bytes.SplitAfter(raw, []byte("\n"))
	log := bytes.Join(lines[:11], nil) // the header and ten records
	res, err := fold(bytes.NewReader(append(append([]byte{}, log...), log...)), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Summary.SitesTotal; n != 20 {
		t.Errorf("two joined logs of ten records fold %d logs, want 20", n)
	}
	other := instrument.LogHeader{Sites: 2000, Seed: 7}.Line()
	for _, joined := range [][]byte{
		append(append(append([]byte{}, log...), other...), lines[1]...),
		append(bytes.Join(lines[1:11], nil), other...),
	} {
		if _, err := fold(bytes.NewReader(joined), io.Discard); err == nil {
			t.Errorf("a log whose later header names another web folded:\n%.200s", joined)
		}
	}
}
