package guard

// Tests of the background creator store: first creator wins, and
// concurrent use is safe (CI runs these under the race detector).

import (
	"sync"
	"testing"
)

func TestBackgroundRoundTrip(t *testing.T) {
	b := newBackground()

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

// TestBackgroundConcurrentRequests: records and lookups from several
// goroutines must all return without a data race, and the first creator
// recorded must stay. Chiefly meaningful under the race detector.
func TestBackgroundConcurrentRequests(t *testing.T) {
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
		close(start)
		wg.Wait()
		if c := b.creatorOf("uid"); c != "tracker.example" {
			t.Fatalf("creatorOf(uid) = %q after concurrent records", c)
		}
	}
}
