package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"cookieguard/internal/instrument"
)

// buildCrawl compiles this command into a temporary directory, so the
// tests below see its real exit codes and signal handling.
func buildCrawl(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "crawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// exitCode returns the process's exit status from cmd.Wait's error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return ee.ExitCode()
}

// TestSortedCrawlEarlyExit: a -sort crawl cut short keeps exactly the
// visits it reports when interrupted, and nothing when crash-injected.
func TestSortedCrawlEarlyExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the crawl binary")
	}
	bin := buildCrawl(t)
	t.Run("interrupted", func(t *testing.T) { interruptedKeepsOutput(t, bin) })
	t.Run("crash-injected", func(t *testing.T) { crashInjectedWritesNothing(t, bin) })
	t.Run("write-error", func(t *testing.T) { writeErrorExits1(t, bin) })
}

// writeErrorExits1: a crawl whose output cannot be written exits 1 with
// the write error and does not report the crawl done, under -sort as on
// the streaming path.
func writeErrorExits1(t *testing.T, bin string) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	for _, args := range [][]string{{"-sort"}, nil} {
		cmd := exec.Command(bin, append([]string{"-sites", "3", "-o", "/dev/full"}, args...)...)
		log, err := cmd.CombinedOutput()
		if code := exitCode(t, err); code != 1 {
			t.Errorf("crawl %v -o /dev/full exited %d, want 1\n%s", args, code, log)
		}
		if !strings.Contains(string(log), "no space left on device") || strings.Contains(string(log), "sites visited") {
			t.Errorf("crawl %v -o /dev/full: stderr lacks the write error or reports the crawl done:\n%s", args, log)
		}
	}
}

// interruptedKeepsOutput: SIGINT mid-crawl under -sort exits 130 and
// writes the log header, then every visit it reports, in (site,
// vantage, persona) order.
func interruptedKeepsOutput(t *testing.T, bin string) {
	out := filepath.Join(t.TempDir(), "logs.jsonl")
	cmd := exec.Command(bin, "-sites", "2000", "-workers", "2", "-v",
		"-vantages", "eu-west,us-east", "-sort", "-o", out)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// -v reports every 100 visits; interrupt at the first report, when
	// the crawl is well under way and far from done.
	var log bytes.Buffer
	sc := bufio.NewScanner(stderr)
	signalled := false
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if !signalled && strings.HasPrefix(sc.Text(), "crawl: 100/") {
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
	}
	if code := exitCode(t, cmd.Wait()); code != 130 {
		t.Fatalf("interrupted crawl exited %d, want 130\n%s", code, log.String())
	}
	m := regexp.MustCompile(`interrupted after (\d+) visits`).FindStringSubmatch(log.String())
	if m == nil {
		t.Fatalf("no interrupt report on stderr:\n%s", log.String())
	}
	visits, _ := strconv.Atoi(m[1])

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(raw) == 0 || len(lines) != 1+visits {
		t.Fatalf("output holds %d bytes in %d lines, want a header and %d visits", len(raw), len(lines), visits)
	}
	h, ok, err := instrument.ParseLogHeader([]byte(lines[0]))
	if err != nil || !ok || h.Sites != 2000 {
		t.Fatalf("first line %q reads as header %+v (ok %v, err %v), want one naming 2000 sites", lines[0], h, ok, err)
	}
	prev := ""
	for i, ln := range lines[1:] {
		var v struct{ Site, Vantage, Persona string }
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
		key := v.Site + "\x00" + v.Vantage + "\x00" + v.Persona
		if i > 0 && key <= prev {
			t.Fatalf("record %d (%s/%s) is not after record %d in (site, vantage, persona) order", i+1, v.Site, v.Vantage, i)
		}
		prev = key
	}
}

// crashInjectedWritesNothing: the crash-injection exit (code 3) leaves
// the journal as the only record of the run.
func crashInjectedWritesNothing(t *testing.T, bin string) {
	dir := t.TempDir()
	out := filepath.Join(dir, "crashed.jsonl")
	cmd := exec.Command(bin, "-sites", "30", "-workers", "2", "-second-pass", "-breaker",
		"-checkpoint", filepath.Join(dir, "ckpt"), "-crash-after", "10", "-sort", "-o", out)
	log, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 3 {
		t.Fatalf("crash-injected crawl exited %d, want 3\n%s", code, log)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() != 0 {
		t.Fatalf("crash-injected crawl wrote output (stat %v, err %v)", fi, err)
	}
}
