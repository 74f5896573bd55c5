package cookieguard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// pr7GoldenHashes pin the exact bytes PR 7 emitted for two persona-free
// configurations (captured from the pre-refactor tree), less the fields
// records no longer carry: a read's value, a cookie event's stack, a
// script's parent and a mutation's target_id, and with each script's
// per-call reads through one API collapsed into one counted entry
// without a name. They were re-recorded by zeroing exactly those fields,
// and then by collapsing exactly those reads, on the tree that still
// wrote them. The crawl-plan unit refactor must
// reproduce them bit for bit: a config that never mentions personas
// crawls exactly one implicit-persona lane per vantage and its records
// carry no persona field at all.
const (
	pr7GoldenClean   = "f7d02e9cf8213fd8f563000c1692a0a12ec3632167e8aca6e4c54415664b55f9"
	pr7GoldenFaulted = "8789178be42effcff9265cebecf1830a60462bcf6c7e7f843ac8268b96673d45"
)

// crawlDigest builds the pipeline and returns its streamDigest.
func crawlDigest(t *testing.T, opts ...Option) string {
	t.Helper()
	return streamDigest(t, New(opts...))
}

// streamDigest streams p and returns the sha256 over the (site, vantage,
// persona)-sorted JSONL — the same byte surface cmd/crawl -sort emits.
func streamDigest(t *testing.T, p *Pipeline) string {
	t.Helper()
	logs, errs := p.Stream(context.Background())
	type rec struct{ key, line string }
	var recs []rec
	for l := range logs {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		recs = append(recs, rec{key: l.Site + "\x00" + l.Vantage + "\x00" + l.Persona, line: string(b)})
	}
	if err := <-errs; err != nil {
		t.Fatalf("stream: %v", err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(r.line)
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

func cleanGoldenOpts() []Option {
	return []Option{
		WithSites(40), WithWorkers(4), WithSeed(7), WithInteract(true),
	}
}

func faultedGoldenOpts() []Option {
	rp := DefaultRetryPolicy()
	rp.MaxAttempts = 2
	return []Option{
		WithSites(40), WithWorkers(4), WithSeed(7), WithInteract(true),
		WithFaults(UniformFaults(0.1, 7)),
		WithRetryPolicy(rp),
		WithSecondPass(true),
		WithBreaker(Breaker{Enabled: true}),
		WithBreakerAutopilot(),
		WithVantages(RegionVantage("eu-west", 0.1, 7), RegionVantage("us-east", 0.1, 7)),
	}
}

// sequentialGolden* pin the bytes the former sequential multi-vantage
// mode — one single-lane crawl per vantage, run one after another —
// emitted for personaOpts(4) and personaFaultedOpts(4), recorded before
// that mode was deleted, and re-recorded like the pr7 goldens without a
// read's value, a cookie event's stack, a script's parent and a
// mutation's target_id, and with per-call reads collapsed. Every crawl
// now runs all lanes through one pool, and must still reproduce them at
// any worker count.
const (
	sequentialGoldenClean   = "0a393366da7194f64ded6d3c11ed0e08cf25e4bb2f9665b8e0a5e96d316ec1f8"
	sequentialGoldenFaulted = "6fe4597b0aed1213a2f3c2e306a932c90bd039d1ad253361d1dd53eaee1d9cd5"
)

// personaOpts is the clean three-persona two-vantage configuration of
// the byte-stability tests, parameterized on the worker count the bytes
// must be independent of.
func personaOpts(workers int) []Option {
	return []Option{
		WithSites(30), WithWorkers(workers), WithSeed(7), WithInteract(true),
		WithVantages(RegionVantage("eu-west", 0, 7), RegionVantage("us-east", 0, 7)),
		WithPersonas("accept", "reject", "dismiss"),
	}
}

// personaFaultedOpts is the same persona axis under the full resilience
// stack: 10% faults, retries, second pass, breaker with autopilot.
func personaFaultedOpts(workers int) []Option {
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
		WithPersonas("accept", "reject", "dismiss"),
	}
}

// TestPersonaCrawlByteStable pins the determinism contract on the
// persona axis: per-(site, vantage, persona) records match the
// sequential-mode goldens at 1, 4 and 8 workers, clean and under the
// full faulted resilience stack — so interleaving six lanes through one
// pool changes no byte a single-lane crawl of each cell emits.
func TestPersonaCrawlByteStable(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		opts       func(workers int) []Option
	}{
		{"clean", sequentialGoldenClean, personaOpts},
		{"faulted", sequentialGoldenFaulted, personaFaultedOpts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 8} {
				if got := crawlDigest(t, tc.opts(workers)...); got != tc.want {
					t.Errorf("persona crawl at %d workers diverged from the sequential-mode bytes:\n got %s\nwant %s",
						workers, got, tc.want)
				}
			}
		})
	}
}

// TestPersonaConsentDelta checks the consent personas actually bite:
// over a CMP web, the accept persona must retain strictly more
// third-party tracker cookies and exfiltrated pairs than the reject
// persona (whose consent denial keeps the gated trackers out), with
// dismiss — banner ignored, cookie unset — tracking like reject.
func TestPersonaConsentDelta(t *testing.T) {
	p := New(
		WithSites(80), WithWorkers(8), WithSeed(7), WithInteract(true),
		WithPersonas("accept", "reject", "dismiss"),
	)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	acc, rej, dis := res.Personas["accept"], res.Personas["reject"], res.Personas["dismiss"]
	for name, ps := range res.Personas {
		if ps.Visits != 80 {
			t.Errorf("persona %q visited %d sites, want 80", name, ps.Visits)
		}
	}
	if acc.TPCookies <= rej.TPCookies {
		t.Errorf("accept retained %d third-party cookies, reject %d; want accept strictly more",
			acc.TPCookies, rej.TPCookies)
	}
	if acc.ExfilPairs <= rej.ExfilPairs {
		t.Errorf("accept saw %d exfiltrated pairs, reject %d; want accept strictly more",
			acc.ExfilPairs, rej.ExfilPairs)
	}
	if dis.TPCookies > rej.TPCookies {
		t.Errorf("dismiss retained %d third-party cookies, more than reject's %d", dis.TPCookies, rej.TPCookies)
	}
	rows := res.PersonaTable()
	if len(rows) != 3 {
		t.Fatalf("PersonaTable has %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Persona >= rows[i].Persona {
			t.Fatalf("PersonaTable rows not sorted: %q before %q", rows[i-1].Persona, rows[i].Persona)
		}
	}
}

// TestPersonaFreeConfigReproducesPR7Bytes is the default-config
// equivalence gate: with no personas configured, the unit-axis crawl
// stack must emit byte-identical output to the vantage-keyed PR 7
// stack, clean and under faults with breaker + autopilot + second pass,
// at 1, 4 and 8 workers.
func TestPersonaFreeConfigReproducesPR7Bytes(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		if got := crawlDigest(t, append(cleanGoldenOpts(), WithWorkers(workers))...); got != pr7GoldenClean {
			t.Errorf("clean persona-free crawl at %d workers diverged from the pinned bytes:\n got %s\nwant %s", workers, got, pr7GoldenClean)
		}
		if got := crawlDigest(t, append(faultedGoldenOpts(), WithWorkers(workers))...); got != pr7GoldenFaulted {
			t.Errorf("faulted persona-free crawl at %d workers diverged from the pinned bytes:\n got %s\nwant %s", workers, got, pr7GoldenFaulted)
		}
	}
}

// guardedGolden pins the bytes of a CookieGuard-enforcing crawl: the
// clean golden configuration under the paper's default policy, with a
// fresh guard installed outside the recorder on every visit. It must
// hold at any worker count. It was recorded before the guard and the
// recorder installed in one call each, and re-recorded like the pr7
// goldens without a mutation's target_id and with per-call reads
// collapsed.
const guardedGolden = "04684874a5fc520283e2c821c749fe1edbc2708bc5c4a37077fb403a8e387ef1"

func TestGuardedCrawlGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := append(cleanGoldenOpts(), WithGuard(DefaultGuardPolicy()), WithWorkers(workers))
		if got := crawlDigest(t, opts...); got != guardedGolden {
			t.Errorf("guarded crawl at %d workers diverged from the pinned bytes:\n got %s\nwant %s", workers, got, guardedGolden)
		}
	}

	// A guarded crawl derived from a plain one runs over the web, fabric
	// and artifact cache the plain crawl has warmed, and must still emit
	// the pinned bytes.
	plain := New(cleanGoldenOpts()...)
	if got := streamDigest(t, plain); got != pr7GoldenClean {
		t.Fatalf("plain crawl diverged from the pinned bytes:\n got %s\nwant %s", got, pr7GoldenClean)
	}
	for _, workers := range []int{1, 4} {
		guarded, err := plain.Derive(append(cleanGoldenOpts(), WithGuard(DefaultGuardPolicy()), WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := streamDigest(t, guarded); got != guardedGolden {
			t.Errorf("derived guarded crawl at %d workers diverged from the pinned bytes:\n got %s\nwant %s", workers, got, guardedGolden)
		}
	}
}
