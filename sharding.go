package cookieguard

// Sharded crawling: one crawl's unit space (site × vantage × persona)
// split into N deterministic shards driven to completion by a
// coordinator with straggler adoption, merging byte-identical to the
// unsharded crawl. Sites partition by a seeded hash of their eTLD+1
// (internal/shard.Assign), so every visit of a site — all vantages,
// personas, and passes — lives on one shard and that shard owns the
// site's frontier slots. Cross-host scheduler state (the breaker's
// per-host circuits span third-party hosts shared by sites on
// different shards) is kept byte-identical by replication: every shard
// runs the full deterministic lane state machines over ALL sites,
// executing only its owned units and folding the feedback of foreign
// units from an outcome exchange — in-memory for the in-process
// driver, sibling journal tailing for the subprocess driver. A shard
// that dies is re-adopted: the coordinator relaunches it and it
// resumes from its own write-ahead journal, replaying completed units
// from their stored logs with zero fabric requests.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"cookieguard/internal/crawler"
	"cookieguard/internal/journal"
	"cookieguard/internal/shard"
	"cookieguard/internal/trancolist"
)

// ShardDriver selects how a sharded crawl's runners execute
// (WithShardDriver).
type ShardDriver int

const (
	// ShardInProcess (the default) runs the N shard pipelines as
	// goroutine pools inside this process, over one frozen web and one
	// shared artifact cache, exchanging foreign-unit outcomes through
	// memory.
	ShardInProcess ShardDriver = iota
	// ShardSubprocess re-execs one OS process per shard (cmd/crawl
	// -shard i/N), supervised consul-agent style; each subprocess
	// journals under its own checkpoint subdirectory and siblings tail
	// each other's journals as the outcome exchange. The Pipeline
	// methods reject this driver — process supervision belongs to
	// cmd/crawl, which implements it over WithShardWorker.
	ShardSubprocess
)

// shardWorkerCfg is the WithShardWorker state: this process is shard
// index of count in a subprocess-driven crawl.
type shardWorkerCfg struct {
	index, count int
}

// ShardLiveStats is one shard runner's live view on /v1/stats: its
// lifecycle state, launch count (attempts > 1 means the coordinator
// adopted it after a failure), scheduler counters, and checkpoint
// journal counters.
type ShardLiveStats struct {
	Shard    int           `json:"shard"`
	State    string        `json:"state"`
	Attempts int           `json:"attempts"`
	Sched    SchedSnapshot `json:"sched"`
	Checkpoint *JournalStats `json:"checkpoint,omitempty"`
}

// shardLive is the mutable per-shard state behind ShardLiveStats.
type shardLive struct {
	state    shard.State
	attempts int
	stats    *crawler.SchedStats
	jnl      *journal.Journal
}

// unitKey identifies one crawl-plan unit by its emitted log fields.
type unitKey struct {
	site, vantage, persona string
}

// shardFeedback reports whether the configured crawl has scheduler
// feedback that crosses units (breaker circuits, second-pass
// requeues). Without it, shards are a pure partition and need no
// outcome exchange.
func (p *Pipeline) shardFeedback() bool {
	return p.cfg.breaker.Enabled || p.cfg.autopilot || p.cfg.secondPass
}

// shardDirName is the per-shard checkpoint subdirectory under the
// WithCheckpoint base directory — shared vocabulary between the
// in-process driver, the subprocess worker protocol, and cmd/crawl.
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
	if p.jnl != nil {
		opts.JournalLogs = true
	}
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

// crawlShardWorker is Crawl for a WithShardWorker process: the batch
// of this shard's owned units only, in the unsharded batch order with
// foreign slots elided.
func (p *Pipeline) crawlShardWorker(ctx context.Context) ([]VisitLog, error) {
	if _, err := p.ensureJournal(); err != nil {
		return nil, err
	}
	opts, err := p.shardWorkerOptions()
	if err != nil {
		return nil, err
	}
	sites := crawler.SiteURLs(trancolist.Domains(p.SiteList()))
	res, err := crawler.Crawl(ctx, sites, opts)
	if err != nil {
		return nil, err
	}
	owned := opts.Shard.Owned
	var out []VisitLog
	for idx, l := range res.Logs {
		if owned[idx%len(sites)] {
			out = append(out, l)
		}
	}
	return out, nil
}

// streamSharded is Stream for a WithShards(n>1) pipeline: the
// in-process driver fans N shard pipelines out over one web and one
// artifact cache and interleaves their owned logs in completion order.
func (p *Pipeline) streamSharded(ctx context.Context) (<-chan VisitLog, <-chan error) {
	out := make(chan VisitLog)
	errc := make(chan error, 1)
	go func() {
		defer close(out)
		defer close(errc)
		err := p.runShardedCrawl(ctx, func(v VisitLog) {
			select {
			case out <- v:
			case <-ctx.Done():
			}
		})
		if err != nil {
			errc <- err
		}
	}()
	return out, errc
}

// crawlSharded is Crawl for a WithShards(n>1) pipeline: it places every
// shard's logs into the unsharded batch order — lanes vantage-major in
// configuration order, ranked sites within a lane — so the returned
// slice is byte-identical to the unsharded Crawl's.
func (p *Pipeline) crawlSharded(ctx context.Context) ([]VisitLog, error) {
	domains := trancolist.Domains(p.SiteList())
	personas := p.cfg.personas
	if len(personas) == 0 {
		personas = []string{""}
	}
	slot := make(map[unitKey]int)
	lane := 0
	for _, v := range p.Vantages() {
		for _, persona := range personas {
			for si, dom := range domains {
				slot[unitKey{dom, v.Name, persona}] = lane*len(domains) + si
			}
			lane++
		}
	}
	all := make([]VisitLog, len(slot))
	err := p.runShardedCrawl(ctx, func(v VisitLog) {
		if i, ok := slot[unitKey{v.Site, v.Vantage, v.Persona}]; ok {
			all[i] = v
		}
	})
	if err != nil {
		return nil, err
	}
	return all, nil
}

// runShardedCrawl is the in-process shard driver: it partitions the
// site space, launches one shard pipeline per shard under a
// coordinator with adoption, dedups deliveries (an adopted shard's
// journal replay re-emits records it already delivered — byte-
// identical, so first-wins), and drives the pipeline-wide progress
// callbacks. emit receives each unit's log exactly once.
func (p *Pipeline) runShardedCrawl(ctx context.Context, emit func(VisitLog)) error {
	if p.cfg.shardDriver == ShardSubprocess {
		return errors.New("cookieguard: the subprocess shard driver is implemented by cmd/crawl (it re-execs one process per shard); Pipeline drives in-process shards only")
	}
	n := p.cfg.shards
	sites := crawler.SiteURLs(trancolist.Domains(p.SiteList()))
	assign := shard.Assign(sites, n, p.cfg.seed)
	owned := shard.Owned(assign, n)
	var ex crawler.OutcomeExchange
	if p.shardFeedback() {
		ex = shard.NewMemExchange()
	}
	total := len(sites) * len(p.Vantages()) * p.unitsPerVantage()

	p.shardMu.Lock()
	p.shardLive = make([]shardLive, n)
	p.shardMu.Unlock()

	var emitMu sync.Mutex
	delivered := make(map[unitKey]bool, total)
	sink := func(v VisitLog) {
		k := unitKey{v.Site, v.Vantage, v.Persona}
		emitMu.Lock()
		defer emitMu.Unlock()
		if delivered[k] {
			return
		}
		delivered[k] = true
		if fn := p.cfg.progress; fn != nil {
			fn(len(delivered), total)
		}
		emit(v)
	}

	runner := func(ctx context.Context, i, attempt int) error {
		stats := &crawler.SchedStats{}
		var jnl *journal.Journal
		if p.cfg.checkpointDir != "" {
			var err error
			jnl, err = journal.Open(filepath.Join(p.cfg.checkpointDir, shardDirName(i)), p.shardFingerprint(i, n))
			if err != nil {
				return err
			}
			defer jnl.Close()
		}
		p.shardMu.Lock()
		p.shardLive[i].attempts = attempt + 1
		p.shardLive[i].stats = stats
		p.shardLive[i].jnl = jnl
		p.shardMu.Unlock()

		opts := p.crawlOptions()
		opts.Stats = stats
		opts.Journal = jnl
		opts.JournalLogs = jnl != nil
		opts.Shard = &crawler.ShardPlan{Index: i, Count: n, Owned: owned[i], Exchange: ex}
		// The sink drives pipeline-wide progress over deduped deliveries;
		// per-shard counts would double-report an adopted shard's replays.
		opts.Progress = nil
		if fn := p.cfg.progressStats; fn != nil {
			opts.ProgressStats = func(ps crawler.ProgressStats) {
				emitMu.Lock()
				ps.Done, ps.Total = len(delivered), total
				fn(ps)
				emitMu.Unlock()
			}
		}
		// The crash-injection harness kills shard 0's first launch — the
		// kill-and-adopt scenario; the adopting relaunch must not re-arm.
		opts.CrashAfterUnits = 0
		if i == 0 && attempt == 0 {
			opts.CrashAfterUnits = p.cfg.crashAfter
		}
		logs, errs := crawler.Stream(ctx, sites, opts)
		for v := range logs {
			sink(v)
		}
		return <-errs
	}

	retries := 0
	if p.cfg.checkpointDir != "" {
		// With journals there is something to adopt from; without, a
		// failed shard would restart from scratch and a real error would
		// just recur.
		retries = 2
	}
	co := &shard.Coordinator{
		Shards:  n,
		Retries: retries,
		Run:     runner,
		OnState: func(i int, s shard.State, err error) {
			p.shardMu.Lock()
			p.shardLive[i].state = s
			p.shardMu.Unlock()
		},
	}
	return co.Execute(ctx)
}

// shardFingerprint is the checkpoint fingerprint of shard i of n: the
// crawl fingerprint plus the shard coordinate, so a shard journal only
// ever resumes as the same shard of the same split — and an in-process
// shard's journal is interchangeable with the equivalent subprocess
// worker's.
func (p *Pipeline) shardFingerprint(i, n int) string {
	return p.fingerprint(fmt.Sprintf("%d/%d", i, n))
}

// ShardStats returns the live per-shard view of a sharded crawl — one
// entry per shard with its lifecycle state, launch count, scheduler
// counters, and checkpoint journal counters — or nil when the pipeline
// is not sharded (or the sharded crawl has not started). Safe to call
// concurrently with the crawl; /v1/stats serves it.
func (p *Pipeline) ShardStats() []ShardLiveStats {
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	if len(p.shardLive) == 0 {
		if w := p.cfg.shardWorker; w != nil {
			s := ShardLiveStats{Shard: w.index, State: string(shard.StateRunning), Attempts: 1, Sched: p.sched.Snapshot()}
			if p.jnl != nil {
				js := p.jnl.Stats()
				s.Checkpoint = &js
			}
			return []ShardLiveStats{s}
		}
		return nil
	}
	out := make([]ShardLiveStats, len(p.shardLive))
	for i := range p.shardLive {
		sl := &p.shardLive[i]
		out[i] = ShardLiveStats{Shard: i, State: string(sl.state), Attempts: sl.attempts}
		if sl.stats != nil {
			out[i].Sched = sl.stats.Snapshot()
		}
		if sl.jnl != nil {
			js := sl.jnl.Stats()
			out[i].Checkpoint = &js
		}
	}
	return out
}
