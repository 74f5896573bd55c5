package shard

import (
	"context"
	"sync"

	"cookieguard/internal/journal"
)

// MemExchange is the in-memory outcome index: one shared map of
// published unit outcomes with blocking waiters. JournalExchange keeps
// one as the index of the sibling records it tails. Publish is
// idempotent: the first record wins, and by the determinism contract a
// re-publish carries identical feedback.
type MemExchange struct {
	mu      sync.Mutex
	recs    map[journal.Key]*journal.Record
	waiters map[journal.Key][]chan *journal.Record
}

// NewMemExchange returns an empty in-process exchange. One exchange
// serves one sharded crawl; it retains every published outcome for the
// crawl's lifetime (feedback records are a few hundred bytes — the
// visit log never enters the exchange).
func NewMemExchange() *MemExchange {
	return &MemExchange{
		recs:    map[journal.Key]*journal.Record{},
		waiters: map[journal.Key][]chan *journal.Record{},
	}
}

// Publish indexes one unit outcome and wakes its waiters.
func (x *MemExchange) Publish(rec journal.Record) {
	k := rec.Key()
	x.mu.Lock()
	if _, dup := x.recs[k]; dup {
		x.mu.Unlock()
		return
	}
	x.recs[k] = &rec
	ws := x.waiters[k]
	delete(x.waiters, k)
	x.mu.Unlock()
	for _, w := range ws {
		w <- &rec // buffered; never blocks
	}
}

// Wait implements crawler.OutcomeExchange: it blocks until a sibling
// publishes the unit or ctx is done.
func (x *MemExchange) Wait(ctx context.Context, k journal.Key) (*journal.Record, error) {
	x.mu.Lock()
	if rec, ok := x.recs[k]; ok {
		x.mu.Unlock()
		return rec, nil
	}
	w := make(chan *journal.Record, 1)
	x.waiters[k] = append(x.waiters[k], w)
	x.mu.Unlock()
	select {
	case rec := <-w:
		return rec, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Published returns how many distinct unit outcomes the exchange
// holds (observability for the coordinator and tests).
func (x *MemExchange) Published() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.recs)
}
