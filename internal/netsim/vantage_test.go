package netsim

import (
	"net/http"
	"sync"
	"testing"
)

func vantageTestNet(t *testing.T) *Internet {
	t.Helper()
	in := New()
	in.RegisterFunc("www.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hello"))
	})
	in.Freeze()
	return in
}

func vget(t *testing.T, f Fetcher, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.Fetch(req, Stamp{})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDefaultVantageViewIdentical: the zero Vantage's view observes a
// fabric without a fault model exactly as a direct Internet.Fetch — same
// status, body, and charged latency — so threading a Vantage through
// unconditionally changes nothing.
func TestDefaultVantageViewIdentical(t *testing.T) {
	in := vantageTestNet(t)
	v := Vantage{}
	if !v.Default() {
		t.Fatal("zero Vantage must report Default()")
	}
	view := in.From(v)

	direct := vget(t, in, "https://www.example.com/a/b")
	viaView := vget(t, view, "https://www.example.com/a/b")
	if direct.StatusCode != viaView.StatusCode {
		t.Fatalf("status: direct=%d view=%d", direct.StatusCode, viaView.StatusCode)
	}
	db, _ := ReadBody(direct)
	vb, _ := ReadBody(viaView)
	if db != vb {
		t.Fatalf("body: direct=%q view=%q", db, vb)
	}
	if dl, vl := Latency(direct), Latency(viaView); dl != vl {
		t.Fatalf("latency: direct=%v view=%v", dl, vl)
	}
}

// TestRegionLatencyDeterministicAndDistinct: the same (region, URL)
// always charges the same latency, and different regions see the same
// host at genuinely different distances.
func TestRegionLatencyDeterministicAndDistinct(t *testing.T) {
	req, _ := http.NewRequest(http.MethodGet, "https://www.example.com/x", nil)
	eu := RegionLatency("eu-west")
	us := RegionLatency("us-east")
	if eu(req) != eu(req) {
		t.Fatal("RegionLatency is not deterministic")
	}
	// One host could collide; across several hosts the regions must
	// separate somewhere.
	distinct := false
	for _, u := range []string{
		"https://a.example/", "https://b.example/", "https://c.example/",
		"https://d.example/", "https://e.example/",
	} {
		r, _ := http.NewRequest(http.MethodGet, u, nil)
		if eu(r) != us(r) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("eu-west and us-east latency models are identical across hosts")
	}
	if RegionLatency("") == nil {
		t.Fatal("empty region must fall back to DefaultLatency")
	}
}

// TestVantageLatencyOnFabric: a named vantage's view charges its
// region's latency while the fabric's direct path keeps the default
// model — the same frozen web, observed from two distances at once.
func TestVantageLatencyOnFabric(t *testing.T) {
	in := vantageTestNet(t)
	url := "https://www.example.com/p"
	directLat := Latency(vget(t, in, url))
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	euWant := RegionLatency("eu-west")(req)
	euGot := Latency(vget(t, in.From(Vantage{Name: "eu-west"}), url))
	if euGot != euWant {
		t.Fatalf("eu-west view charged %v, model says %v", euGot, euWant)
	}
	if directLat != Latency(vget(t, in, url)) {
		t.Fatal("direct latency changed after vantage use")
	}
}

// TestVantageFaultsOverride: a vantage with its own fault config draws
// its own schedule, while the fabric's direct path stays fault-free —
// region-dependent fault rates over one registered web.
func TestVantageFaultsOverride(t *testing.T) {
	in := vantageTestNet(t)
	cfg := FaultConfig{Seed: RegionSeed(7, "flaky-region"), PConnReset: 1}
	view := in.From(Vantage{Name: "flaky-region", Faults: cfg})
	req, _ := http.NewRequest(http.MethodGet, "https://www.example.com/q", nil)
	if _, err := view.Fetch(req, Stamp{}); err == nil {
		t.Fatal("vantage with PConnReset=1 served a request")
	}
	if _, err := in.Fetch(req, Stamp{}); err != nil {
		t.Fatalf("fabric's direct path inherited the vantage's faults: %v", err)
	}
	if in.Faults() == 0 {
		t.Fatal("vantage fault was not counted on the shared fabric counters")
	}
}

// TestVantageViewIgnoresFabricFaults: a view draws faults from its own
// vantage's schedule only, so a fault model installed on the fabric
// reaches the fabric's direct path and no vantage view, not even the
// default vantage's.
func TestVantageViewIgnoresFabricFaults(t *testing.T) {
	in := vantageTestNet(t)
	in.SetFaultModel(func(*http.Request, Stamp) FaultDecision { return FaultDecision{Kind: FaultConnReset} })
	req, _ := http.NewRequest(http.MethodGet, "https://www.example.com/q", nil)
	if _, err := in.Fetch(req, Stamp{}); err == nil {
		t.Fatal("fabric's direct path ignored its installed fault model")
	}
	for _, v := range []Vantage{{}, {Name: "eu-west"}} {
		if _, err := in.From(v).Fetch(req, Stamp{}); err != nil {
			t.Fatalf("view from %q inherited the fabric's fault model: %v", v.Name, err)
		}
	}
}

// TestRegionSeed: stable per region, distinct across regions, identity
// for the empty region.
func TestRegionSeed(t *testing.T) {
	if RegionSeed(42, "") != 42 {
		t.Fatal("empty region must keep the seed")
	}
	if RegionSeed(42, "eu") != RegionSeed(42, "eu") {
		t.Fatal("RegionSeed not deterministic")
	}
	if RegionSeed(42, "eu") == RegionSeed(42, "us") {
		t.Fatal("regions share a fault seed")
	}
}

// TestVantageViewsConcurrentlyShareFabric: the unified cross-vantage
// scheduler drives every vantage's view through one worker pool at
// once, so views must be safely usable from concurrent goroutines over
// the shared frozen fabric — and each view's observations must stay
// deterministic (per-(vantage, URL) latency unchanged by concurrency).
// Run under -race.
func TestVantageViewsConcurrentlyShareFabric(t *testing.T) {
	in := vantageTestNet(t)
	views := []Fetcher{
		in.From(Vantage{Name: "eu-west"}),
		in.From(Vantage{Name: "us-east"}),
		in, // the default path shares the pool too
	}
	urls := []string{
		"https://www.example.com/a",
		"https://www.example.com/b",
		"https://www.example.com/c",
	}
	// Sequential reference: per (view, url) latency and body.
	type obs struct {
		lat  float64
		body string
	}
	want := map[int]map[string]obs{}
	for vi, view := range views {
		want[vi] = map[string]obs{}
		for _, u := range urls {
			resp := vget(t, view, u)
			b, _ := ReadBody(resp)
			want[vi][u] = obs{lat: Latency(resp), body: b}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				vi := (w + i) % len(views)
				u := urls[(w*7+i)%len(urls)]
				req, _ := http.NewRequest(http.MethodGet, u, nil)
				resp, err := views[vi].Fetch(req, Stamp{})
				if err != nil {
					errs <- err.Error()
					return
				}
				b, _ := ReadBody(resp)
				if got := (obs{lat: Latency(resp), body: b}); got != want[vi][u] {
					errs <- "concurrent observation diverged from sequential reference"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
