package shard

import (
	"context"
	"fmt"
	"sync"
)

// State is one shard runner's lifecycle position, reported to the
// coordinator's observer (and surfaced on /v1/stats).
type State string

const (
	StateRunning State = "running"
	// StateAdopted means the runner failed (crashed, or was killed by
	// the crash-injection harness) and the coordinator is re-adopting
	// its remaining units by resuming from the shard's journal:
	// journaled units re-execute and verify against their records, the
	// rest crawl fresh.
	StateAdopted State = "adopted"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Runner executes one shard attempt to completion. attempt is 0 for
// the first launch and increments per adoption; a resumed attempt must
// reopen the shard's journal, whose records its siblings have been
// reading all along (a journal append is the publish).
type Runner func(ctx context.Context, shard, attempt int) error

// Coordinator drives N shard runners to completion, consul-agent
// style: every runner is supervised, and a runner that dies is
// re-adopted (relaunched to resume from its own journal) until its
// retry budget is exhausted — then the whole crawl fails and every
// sibling is cancelled. cmd/crawl's subprocess supervisor is its
// driver: each Runner call re-execs one shard worker process.
type Coordinator struct {
	Shards int
	// Retries is each shard's adoption budget (relaunches after a
	// failure). 0 means a single crash fails the crawl — without a
	// journal there is nothing to adopt from.
	Retries int
	Run     Runner
	// OnState, when set, observes every shard state transition. Called
	// from shard goroutines; must be safe for concurrent use.
	OnState func(shard int, s State, err error)
}

// Execute launches every shard and blocks until all complete. The
// returned error is the first permanent (budget-exhausted) shard
// failure, or ctx's error.
func (c *Coordinator) Execute(ctx context.Context) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for i := 0; i < c.Shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				c.state(shard, StateRunning, nil)
				err := c.Run(ctx, shard, attempt)
				if err == nil {
					c.state(shard, StateDone, nil)
					return
				}
				if ctx.Err() != nil {
					// A sibling's permanent failure (or the caller)
					// cancelled the crawl; this shard's error is noise.
					return
				}
				if attempt >= c.Retries {
					c.state(shard, StateFailed, err)
					cancel(fmt.Errorf("shard %d/%d failed after %d adoption(s): %w",
						shard, c.Shards, attempt, err))
					return
				}
				c.state(shard, StateAdopted, err)
			}
		}(i)
	}
	wg.Wait()
	if cause := context.Cause(ctx); cause != nil && cause != context.Canceled {
		return cause
	}
	return ctx.Err()
}

func (c *Coordinator) state(shard int, s State, err error) {
	if c.OnState != nil {
		c.OnState(shard, s, err)
	}
}
