package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestLayerOf checks the layer each kind of stack, innermost frame
// first, is charged to.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		want   string
		frames []string
	}{
		// Runtime frames are charged to the program frame that called them.
		{"analysis", []string{"runtime.mallocgc", "runtime.growslice",
			"cookieguard/internal/analysis.(*Analyzer).Observe", "cookieguard.(*Pipeline).Run", "main.crawl"}},
		// GC assist is charged to the allocating layer.
		{"jsdsl", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "cookieguard/internal/jsdsl.(*Interp).call",
			"cookieguard/internal/browser.(*Page).runScript", "cookieguard/internal/crawler.worker.func1"}},
		{"runtime-gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime-gc", []string{"runtime.bgsweep"}},
		// Root-package frames under a (*Server) method are the server's.
		{"server", []string{"encoding/json.(*encodeState).marshal", "cookieguard.(*Pipeline).NewServer.marshal.func10",
			"cookieguard.(*encCache).get", "cookieguard.(*Server).versioned.func1", "net/http.(*conn).serve"}},
		{"analysis", []string{"encoding/json.Marshal", "cookieguard/internal/analysis.(*Results).StableJSON",
			"cookieguard.(*Server).versioned.func1"}},
		{"pipeline", []string{"cookieguard.(*Pipeline).runServed.func1"}},
		{"guard", []string{"cookieguard/internal/guard.(*Guard).Middleware.func1.1", "cookieguard/internal/browser.(*Page).cookieAPI"}},
		{"urlutil", []string{"cookieguard/internal/urlutil.SiteOf[...]", "cookieguard/internal/cookiejar.(*Jar).SetFromDocument"}},
		{"bench", []string{"io.Copy", "main.(*serveLoad).mirror"}},
		{"other", []string{"runtime.futex", "runtime.notesleep", "runtime.mPark", "runtime.schedule"}},
		{"other", []string{"syscall.Syscall", "net/http.(*persistConn).readLoop"}},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestAttributeProfile decodes a checked-in CPU profile (a guard-eval and
// a serve-live traced child of 150 sites, merged) and checks the CPU time
// each layer is charged.
func TestAttributeProfile(t *testing.T) {
	gz, err := os.ReadFile("testdata/guard-serve.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range samples {
		total += s.ns
	}
	if total != 710e6 {
		t.Errorf("profile holds %d ns of samples, want 710ms", total)
	}
	got := attribute(samples)
	want := map[string]int64{
		"jsdsl": 170e6, "runtime-gc": 110e6, "analysis": 100e6, "cookiejar": 90e6, "guard": 60e6,
		"urlutil": 40e6, "netsim": 30e6, "publicsuffix": 30e6, "browser": 20e6, "instrument": 20e6,
		"server": 10e6, "artifact": 10e6, "contenthash": 10e6, "webgen": 10e6,
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, the samples to %d", sum, total)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %d ns, want %d", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected layer %s: %d ns", k, got[k])
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

var sink int

// TestDecodeProfile decodes a CPU profile of this process, as the Go
// toolchain that built it writes them, and finds the function that
// burned the CPU, with the time it burned.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler in use:", err)
	}
	sink += burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var burned, total int64
	for _, s := range samples {
		total += s.ns
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".burnCPU") {
				burned += s.ns
				break
			}
		}
	}
	if burned < 100e6 || burned > total {
		t.Fatalf("burnCPU: %d ns of %d ns sampled, want most of 300ms", burned, total)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}
