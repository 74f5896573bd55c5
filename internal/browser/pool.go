package browser

import (
	"sync"
	"sync/atomic"

	"cookieguard/internal/dom"
	"cookieguard/internal/jsdsl"
	"cookieguard/internal/urlutil"
)

// Per-visit object pooling.
//
// A crawl performs the same shape of work for every site: one Page (plus
// frame sub-pages), a few dozen request/script records, an interpreter
// per executed script, a DOM arena per document, and one cookie jar. All
// of it is dead the moment the visit's log is built, so the structures
// cycle through pools instead of being reallocated per visit. The
// lifecycle is explicit and owned by the crawler worker:
// Browser.Release() hands everything the browser created back to the
// pools — after it returns, no page, node, interpreter, jar or cookie of
// that visit may be touched again.
//
// Pooling is off unless Options.Pooling is set (the crawler sets it by
// default; cookieguard.WithPooling(false) is the escape hatch). Pooled
// and unpooled runs are byte-identical: pooling recycles memory between
// visits but never changes what a visit computes — the equivalence is
// enforced by tests at the browser, crawler, and pipeline levels.

var (
	pagePool = sync.Pool{New: func() any {
		pageAllocated.Add(1)
		return new(Page)
	}}
	pageAllocated atomic.Uint64
	pageAcquired  atomic.Uint64
)

// PoolStats is a snapshot of the visit-path pools' reuse counters, in
// objects: Acquired counts pool handouts, Allocated the subset that had
// to be freshly allocated (Acquired−Allocated were reused). Counters are
// process-wide and monotonic.
type PoolStats struct {
	PageAllocated   uint64 `json:"page_allocated"`
	PageAcquired    uint64 `json:"page_acquired"`
	InterpAllocated uint64 `json:"interp_allocated"`
	InterpAcquired  uint64 `json:"interp_acquired"`
	ArenaAllocated  uint64 `json:"arena_allocated"`
	ArenaAcquired   uint64 `json:"arena_acquired"`
}

// ReuseRate returns the fraction of pool acquisitions served without a
// fresh allocation (0 when nothing was acquired).
func (s PoolStats) ReuseRate() float64 {
	acq := s.PageAcquired + s.InterpAcquired + s.ArenaAcquired
	alloc := s.PageAllocated + s.InterpAllocated + s.ArenaAllocated
	if acq == 0 {
		return 0
	}
	return 1 - float64(alloc)/float64(acq)
}

// CollectPoolStats snapshots the page, interpreter, and DOM-arena pool
// counters.
func CollectPoolStats() PoolStats {
	s := PoolStats{
		PageAllocated: pageAllocated.Load(),
		PageAcquired:  pageAcquired.Load(),
	}
	s.InterpAllocated, s.InterpAcquired = jsdsl.InterpPoolStats()
	s.ArenaAllocated, s.ArenaAcquired = dom.ArenaPoolStats()
	return s
}

// Release returns every per-visit object this browser created — pages
// (landing, navigations, and frames), their DOM arenas, their
// interpreters, and then the cookie jar — to the pools. It is a no-op
// unless Options.Pooling is set. The caller owns the lifecycle: call it
// only once all data derived from the visit has been copied out
// (instrument.BuildVisitLog copies everything it keeps), and touch
// nothing of the visit afterwards, the jar (Jar) included. The
// visit's instrument.Recorder pools its event buffer the same way; the
// crawler releases it after this, once its cookie middleware and jar
// observer can no longer fire.
func (b *Browser) Release() {
	if !b.opts.Pooling {
		return
	}
	for _, p := range b.pages {
		p.release()
	}
	b.pages = nil
	if b.jar != nil {
		b.jar.Release()
		b.jar = nil
	}
}

// release resets the page and returns it to the page pool. Slices keep
// their backing arrays, so the next visit's page starts pre-sized to the
// shape prior visits needed, but are zeroed to their capacity first, so
// a pooled page keeps none of the last visit's strings and closures
// alive.
func (p *Page) release() {
	if p.Doc != nil {
		p.Doc.Release()
		p.Doc = nil
	}
	for _, in := range p.interps {
		in.Release()
	}
	p.interps = empty(p.interps)
	p.URL = ""
	p.Origin = urlutil.Origin{}
	p.Scripts = empty(p.Scripts)
	p.Requests = empty(p.Requests)
	p.Timing = Timing{}
	p.Frames = empty(p.Frames) // frame pages are tracked (and released) by the browser
	p.browser = nil
	p.binding.page = nil
	p.mainFrame = false
	p.execStack = empty(p.execStack)
	p.injectQ = empty(p.injectQ)
	p.deferQ = empty(p.deferQ)
	p.clicks = empty(p.clicks)
	p.idClicks = empty(p.idClicks)
	p.startMS = 0
	p.scriptCnt = 0
	p.parallelCredit = 0
	p.baseURL = nil
	p.paths = empty(p.paths)
	p.inlineHop = ""
	p.nodes = empty(p.nodes)
	pagePool.Put(p)
}

// empty zeroes s to its capacity and returns it with length zero. The
// spare capacity matters too: a page pops its exec stack and drains its
// queues by reslicing, which leaves the dropped entries behind.
func empty[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}
