package shard

import (
	"context"
	"io"
	"os"
	"time"

	"cookieguard/internal/journal"
)

// defaultTailPoll is how often the tailer re-reads sibling journals
// while at least one waiter is parked. Exchange latency only stalls a
// round barrier, never changes bytes, so the interval trades idle
// syscalls against barrier wake-up lag.
const defaultTailPoll = 2 * time.Millisecond

// JournalExchange is the between-processes outcome exchange: each
// subprocess shard journals its owned units under its own checkpoint
// directory (with live flush, journal.SetLiveFlush), and every sibling
// tails the others' journal files — an append IS a publish, so a
// crashed shard's already-journaled outcomes stay visible and a
// resumed (adopted) shard needs no re-send: the records were on disk
// all along. Wait indexes freshly appended hash-valid unit lines until
// the unit appears.
type JournalExchange struct {
	mem   *MemExchange
	paths []string
	offs  []int64
	poll  time.Duration
	stop  chan struct{}
}

// NewJournalExchange tails the given sibling journal files (typically
// <dir>/shard-<j>/crawl.waj for every sibling j). Files may not exist
// yet — shards start concurrently — and may be truncated by a sibling
// resume (only ever past this tailer's consumed offset, since resume
// truncation removes only hash-invalid tails). Call Close when the
// crawl ends to stop the poller.
func NewJournalExchange(paths []string) *JournalExchange {
	x := &JournalExchange{
		mem:   NewMemExchange(),
		paths: paths,
		offs:  make([]int64, len(paths)),
		poll:  defaultTailPoll,
		stop:  make(chan struct{}),
	}
	go x.tail()
	return x
}

// Wait implements crawler.OutcomeExchange: it blocks until the tailer
// has read the unit from the owning sibling's journal or ctx is done.
func (x *JournalExchange) Wait(ctx context.Context, k journal.Key) (*journal.Record, error) {
	return x.mem.Wait(ctx, k)
}

// Close stops the tail poller. Idempotent is not required — call once.
func (x *JournalExchange) Close() { close(x.stop) }

// tail is the poller: it scans every sibling journal for freshly
// flushed lines and publishes the unit records into the in-memory
// index, waking parked waiters.
func (x *JournalExchange) tail() {
	t := time.NewTicker(x.poll)
	defer t.Stop()
	for {
		x.scan()
		select {
		case <-x.stop:
			return
		case <-t.C:
		}
	}
}

// scan reads each sibling journal from its consumed offset and indexes
// every complete hash-valid unit line. A partial line at the tail —
// the writer mid-flush — is left for the next scan.
func (x *JournalExchange) scan() {
	for i, path := range x.paths {
		f, err := os.Open(path)
		if err != nil {
			continue // not created yet
		}
		if _, err := f.Seek(x.offs[i], io.SeekStart); err != nil {
			f.Close()
			continue
		}
		raw, err := io.ReadAll(f)
		f.Close()
		if err != nil || len(raw) == 0 {
			continue
		}
		units, consumed := journal.ScanUnits(raw)
		x.offs[i] += int64(consumed)
		for _, u := range units {
			x.mem.Publish(*u)
		}
	}
}
