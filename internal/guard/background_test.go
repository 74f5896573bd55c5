package guard

// Tests of the background creator store: first creator wins, operations
// degrade to empty after close, and concurrent use is safe (CI runs
// these under the race detector).

import (
	"sync"
	"testing"
)

func TestBackgroundRoundTrip(t *testing.T) {
	b := newBackground()
	defer b.close()

	b.record("uid", "tracker.example")
	b.record("uid", "other.example") // first creator wins
	b.record("sess", "site.example")

	if c, ok := b.lookup("uid"); !ok || c != "tracker.example" {
		t.Fatalf("lookup(uid) = %q,%v; want tracker.example,true", c, ok)
	}
	if _, ok := b.lookup("missing"); ok {
		t.Fatal("lookup(missing) reported existence")
	}
	if c := b.creatorOf("sess"); c != "site.example" {
		t.Fatalf("creatorOf(sess) = %q", c)
	}
}

// TestBackgroundDegradesAfterClose: after close every name reads as
// unrecorded, records are dropped, and closing again is harmless.
func TestBackgroundDegradesAfterClose(t *testing.T) {
	b := newBackground()
	b.record("uid", "tracker.example")
	b.close()

	if c, ok := b.lookup("uid"); ok || c != "" {
		t.Fatalf("lookup after close = %q,%v; want \"\",false", c, ok)
	}
	b.record("k", "v")
	if _, ok := b.lookup("k"); ok {
		t.Fatal("record after close was kept")
	}
	b.close()
}

// TestBackgroundCloseRacesRequests: records and lookups racing a
// concurrent close must all return without a data race (empty results
// are fine). Chiefly meaningful under the race detector.
func TestBackgroundCloseRacesRequests(t *testing.T) {
	for i := 0; i < 50; i++ {
		b := newBackground()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				b.record("uid", "tracker.example")
				b.lookup("uid")
				b.creatorOf("sess")
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			b.close()
		}()
		close(start)
		wg.Wait()
	}
}
