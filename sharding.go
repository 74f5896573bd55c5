package cookieguard

// The shard worker protocol: one process of a sharded crawl, launched
// by cmd/crawl's subprocess supervisor (-shards N) as crawl -shard i/N.
// The crawl's unit space (site × vantage × persona) splits into N
// deterministic shards by a seeded hash of each site's eTLD+1
// (internal/shard.Assign), so every visit of a site — all vantages,
// personas, and passes — lives on one shard. A WithShardWorker
// pipeline executes only its own shard's units. Cross-host scheduler
// state (the breaker's per-host circuits span third-party hosts shared
// by sites on different shards) stays byte-identical by replication:
// every worker runs the full deterministic lane state machines over
// ALL sites and folds the feedback of foreign units from its siblings'
// journals, which it tails as the outcome exchange. A worker that dies
// resumes from its own write-ahead journal, so the supervisor can adopt
// it by relaunching it on the same checkpoint directory.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"cookieguard/internal/crawler"
	"cookieguard/internal/journal"
	"cookieguard/internal/shard"
	"cookieguard/internal/trancolist"
)

// shardWorkerCfg is the WithShardWorker state: this process is shard
// index of count in a subprocess-driven crawl.
type shardWorkerCfg struct {
	index, count int
}

// shardFeedback reports whether the configured crawl has scheduler
// feedback that crosses units (breaker circuits, second-pass
// requeues). Without it, shards are a pure partition and need no
// outcome exchange.
func (p *Pipeline) shardFeedback() bool {
	return p.cfg.breaker.Enabled || p.cfg.autopilot || p.cfg.secondPass
}

// shardDirName is the per-shard checkpoint subdirectory under the
// WithCheckpoint base directory — the <base>/shard-<i> layout cmd/crawl's
// supervisor launches its workers with.
func shardDirName(i int) string {
	return fmt.Sprintf("shard-%d", i)
}

// streamShardWorker is Stream for a WithShardWorker process: one shard
// of a subprocess-driven crawl, executing its owned units and tailing
// sibling journals for foreign feedback.
func (p *Pipeline) streamShardWorker(ctx context.Context) (<-chan VisitLog, <-chan error) {
	if _, err := p.ensureJournal(); err != nil {
		return errStream(err)
	}
	opts, err := p.shardWorkerOptions()
	if err != nil {
		return errStream(err)
	}
	return crawler.Stream(ctx, crawler.SiteURLs(trancolist.Domains(p.SiteList())), opts)
}

// shardWorkerOptions builds the crawler options of a WithShardWorker
// process. With feedback configured, the sibling journals are the
// outcome exchange: the checkpoint directory must follow the
// <base>/shard-<i> convention so siblings are discoverable, this
// shard's journal live-flushes every append (an append is a publish),
// and a tailer indexes the siblings' appends.
func (p *Pipeline) shardWorkerOptions() (crawler.Options, error) {
	w := p.cfg.shardWorker
	if w.count < 1 || w.index < 0 || w.index >= w.count {
		return crawler.Options{}, fmt.Errorf("cookieguard: shard worker %d/%d out of range", w.index, w.count)
	}
	opts := p.crawlOptions()
	sites := crawler.SiteURLs(trancolist.Domains(p.SiteList()))
	assign := shard.Assign(sites, w.count, p.cfg.seed)
	plan := &crawler.ShardPlan{Index: w.index, Count: w.count, Owned: shard.Owned(assign, w.count)[w.index]}
	if p.shardFeedback() {
		if p.jnl == nil {
			return crawler.Options{}, errors.New("cookieguard: a shard worker with breaker or second-pass feedback requires WithCheckpoint — sibling journals are the outcome exchange")
		}
		if filepath.Base(p.cfg.checkpointDir) != shardDirName(w.index) {
			return crawler.Options{}, fmt.Errorf("cookieguard: shard worker %d/%d checkpoint dir must be <base>/%s, got %q",
				w.index, w.count, shardDirName(w.index), p.cfg.checkpointDir)
		}
		base := filepath.Dir(p.cfg.checkpointDir)
		var paths []string
		for j := 0; j < w.count; j++ {
			if j != w.index {
				paths = append(paths, filepath.Join(base, shardDirName(j), journal.FileName))
			}
		}
		p.shardMu.Lock()
		if p.shardTail == nil {
			p.shardTail = shard.NewJournalExchange(paths)
		}
		plan.Exchange = p.shardTail
		p.shardMu.Unlock()
		p.jnl.SetLiveFlush(true)
	}
	opts.Shard = plan
	return opts, nil
}
