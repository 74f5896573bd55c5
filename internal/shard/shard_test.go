package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cookieguard/internal/journal"
)

// TestAssignDeterministicAndComplete: the partition is a total,
// deterministic assignment — every site lands on exactly one shard,
// identically across calls, and n=1 collapses to shard 0.
func TestAssignDeterministicAndComplete(t *testing.T) {
	urls := make([]string, 200)
	for i := range urls {
		urls[i] = fmt.Sprintf("https://site-%04d.example/", i)
	}
	a := Assign(urls, 4, 7)
	b := Assign(urls, 4, 7)
	counts := make([]int, 4)
	for i := range urls {
		if a[i] != b[i] {
			t.Fatal("partition is not deterministic")
		}
		if a[i] < 0 || a[i] >= 4 {
			t.Fatalf("site %d assigned out-of-range shard %d", i, a[i])
		}
		counts[a[i]]++
	}
	for s, c := range counts {
		// A seeded hash over 200 sites should not starve any of 4 shards.
		if c == 0 {
			t.Fatalf("shard %d owns no sites: %v", s, counts)
		}
	}
	if diff := Assign(urls, 4, 8); equalInts(diff, a) {
		t.Fatal("different seeds should (overwhelmingly) produce different partitions")
	}
	for i, s := range Assign(urls, 1, 7) {
		if s != 0 {
			t.Fatalf("n=1 must assign every site to shard 0, site %d got %d", i, s)
		}
	}
	owned := Owned(a, 4)
	for site, s := range a {
		for i := 0; i < 4; i++ {
			if owned[i][site] != (i == s) {
				t.Fatalf("Owned mask disagrees with Assign at shard %d site %d", i, site)
			}
		}
	}
}

// TestAssignByRegistrableDomain: every URL of one eTLD+1 — subdomains
// included — lands on the same shard, the invariant that keeps a
// site's own breaker state shard-local.
func TestAssignByRegistrableDomain(t *testing.T) {
	urls := []string{
		"https://shop.example.com/",
		"https://www.shop.example.com/landing",
		"https://cdn.shop.example.com/a.js",
	}
	a := Assign(urls, 8, 42)
	if a[0] != a[1] || a[1] != a[2] {
		t.Fatalf("same eTLD+1 split across shards: %v", a)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func recKey(r journal.Record) journal.Key { return (&r).Key() }

func unitRec(site, pass int) journal.Record {
	return journal.Record{
		Vantage: "eu-west", Persona: "accept", Site: site, Pass: pass,
		OK: true, VirtualMs: float64(100 + site),
		Hosts: []journal.HostCount{{Host: fmt.Sprintf("cdn-%d.example", site), OK: 2}},
	}
}

// TestMemExchangePublishWait: both orders (publish-then-wait and
// wait-then-publish) deliver, and publish is first-wins idempotent.
func TestMemExchangePublishWait(t *testing.T) {
	x := NewMemExchange()
	r := unitRec(3, 1)
	x.Publish(r)
	got, err := x.Wait(context.Background(), recKey(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualMs != r.VirtualMs || len(got.Hosts) != 1 {
		t.Fatalf("feedback fields lost: %+v", got)
	}

	dup := unitRec(3, 1)
	dup.VirtualMs = 999
	x.Publish(dup)
	again, _ := x.Wait(context.Background(), recKey(r))
	if again.VirtualMs != r.VirtualMs {
		t.Fatal("re-publish must be first-wins idempotent")
	}
	if x.Published() != 1 {
		t.Fatalf("Published() = %d, want 1", x.Published())
	}

	late := unitRec(9, 2)
	done := make(chan *journal.Record, 1)
	go func() {
		rec, err := x.Wait(context.Background(), recKey(late))
		if err != nil {
			done <- nil
			return
		}
		done <- rec
	}()
	time.Sleep(5 * time.Millisecond)
	x.Publish(late)
	if rec := <-done; rec == nil || rec.Site != 9 {
		t.Fatalf("parked waiter got %+v", rec)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Wait(ctx, recKey(unitRec(99, 1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v", err)
	}
}

// TestJournalExchangeTailsSiblings: a JournalExchange over two sibling
// journal files indexes appended unit records as they are flushed —
// including records appended after the tailer started — and ignores a
// torn partial line at a file's tail until it completes.
func TestJournalExchangeTailsSiblings(t *testing.T) {
	dir := t.TempDir()
	d0, d1 := filepath.Join(dir, "shard-0"), filepath.Join(dir, "shard-1")
	j0, err := journal.Open(d0, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j0.SetLiveFlush(true)
	r0 := unitRec(0, 1)
	if err := j0.Append(r0); err != nil {
		t.Fatal(err)
	}

	x := NewJournalExchange([]string{
		filepath.Join(d0, journal.FileName),
		filepath.Join(d1, journal.FileName), // does not exist yet
	})
	defer x.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := x.Wait(ctx, (&r0).Key()); err != nil {
		t.Fatalf("pre-start append not indexed: %v", err)
	}

	// Sibling 1 appears late and appends live.
	j1, err := journal.Open(d1, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j1.SetLiveFlush(true)
	r1 := unitRec(1, 1)
	if err := j1.Append(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Wait(ctx, (&r1).Key()); err != nil {
		t.Fatalf("live append not indexed: %v", err)
	}

	// A torn tail (partial line) must not be consumed...
	f, err := os.OpenFile(filepath.Join(d0, journal.FileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := appendableLine(t, d0, unitRec(2, 1))
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the tailer scan the torn state
	// ...and completing it later must deliver the record.
	if _, err := f.Write(full[len(full)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := x.Wait(ctx, recKey(unitRec(2, 1))); err != nil {
		t.Fatalf("completed torn line not indexed: %v", err)
	}
}

// appendableLine renders one unit record exactly as the journal would
// append it, by writing it through a scratch journal and diffing the
// file.
func appendableLine(t *testing.T, likeDir string, rec journal.Record) []byte {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return after[len(before):]
}

// TestCoordinatorAdoptsAndFails: a runner that dies is relaunched with
// an incremented attempt until its budget runs out; budget exhaustion
// cancels the siblings and surfaces the shard's error.
func TestCoordinatorAdoptsAndFails(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int]int{}
	transitions := map[int][]State{}
	co := &Coordinator{
		Shards:  2,
		Retries: 2,
		Run: func(ctx context.Context, shard, attempt int) error {
			mu.Lock()
			attempts[shard]++
			mu.Unlock()
			if shard == 0 && attempt < 2 {
				return errors.New("injected crash")
			}
			return nil
		},
		OnState: func(shard int, s State, err error) {
			mu.Lock()
			transitions[shard] = append(transitions[shard], s)
			mu.Unlock()
		},
	}
	if err := co.Execute(context.Background()); err != nil {
		t.Fatalf("adoption within budget must succeed, got %v", err)
	}
	if attempts[0] != 3 || attempts[1] != 1 {
		t.Fatalf("attempts = %v, want shard0:3 shard1:1", attempts)
	}
	wantShard0 := []State{StateRunning, StateAdopted, StateRunning, StateAdopted, StateRunning, StateDone}
	if fmt.Sprint(transitions[0]) != fmt.Sprint(wantShard0) {
		t.Fatalf("shard 0 transitions = %v, want %v", transitions[0], wantShard0)
	}

	block := make(chan struct{})
	exhausted := &Coordinator{
		Shards:  2,
		Retries: 1,
		Run: func(ctx context.Context, shard, attempt int) error {
			if shard == 0 {
				return errors.New("permanent")
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-block:
				return nil
			}
		},
	}
	err := exhausted.Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "shard 0/2 failed after 1 adoption(s)") {
		t.Fatalf("want the budget-exhaustion error, got %v", err)
	}
	close(block)
}

// TestMergeSortedJSONL: a k-way interleave of sorted shard streams is
// byte-identical to the sorted concatenation, tolerating blank lines
// and an unterminated final line.
func TestMergeSortedJSONL(t *testing.T) {
	key := func(line []byte) (string, error) { return string(line[:1]), nil }
	var out bytes.Buffer
	err := MergeSortedJSONL(&out, []io.Reader{
		strings.NewReader("a 1\nd 4\ne 5\n"),
		strings.NewReader("b 2\nf 6"), // no trailing newline
		strings.NewReader("\nc 3\n\n"),
		strings.NewReader(""),
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	want := "a 1\nb 2\nc 3\nd 4\ne 5\nf 6\n"
	if out.String() != want {
		t.Fatalf("merged = %q, want %q", out.String(), want)
	}
	wantErr := errors.New("bad key")
	err = MergeSortedJSONL(&bytes.Buffer{}, []io.Reader{strings.NewReader("x\n")},
		func([]byte) (string, error) { return "", wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("key errors must surface, got %v", err)
	}
}
