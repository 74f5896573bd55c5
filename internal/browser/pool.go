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
// per executed script, and a DOM arena per document. All of it is dead
// the moment the visit's log is built, so the structures cycle through
// pools instead of being reallocated per visit. The lifecycle is
// explicit and owned by the crawler worker: Browser.Release() hands
// everything the browser created back to the pools — after it returns,
// no page, node, or interpreter of that visit may be touched again.
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
// (landing, navigations, and frames), their DOM arenas, and their
// interpreters — to the pools. It is a no-op unless Options.Pooling is
// set. The caller owns the lifecycle: call it only once all data derived
// from the visit has been copied out (instrument.BuildVisitLog copies
// everything it keeps), and touch nothing of the visit afterwards. The
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
}

// release resets the page and returns it to the page pool. Slices keep
// their backing arrays, so the next visit's page starts pre-sized to the
// shape prior visits needed.
func (p *Page) release() {
	if p.Doc != nil {
		p.Doc.Release()
		p.Doc = nil
	}
	for _, in := range p.interps {
		in.Release()
	}
	p.interps = p.interps[:0]
	p.URL = ""
	p.Origin = urlutil.Origin{}
	p.Scripts = p.Scripts[:0]
	p.Requests = p.Requests[:0]
	p.Timing = Timing{}
	p.DeadlineHit = false
	p.Frames = p.Frames[:0] // frame pages are tracked (and released) by the browser
	p.browser = nil
	p.binding.page = nil
	p.mainFrame = false
	p.execStack = p.execStack[:0]
	p.injectQ = p.injectQ[:0]
	p.deferQ = p.deferQ[:0]
	p.clicks = p.clicks[:0]
	p.idClicks = p.idClicks[:0]
	p.startMS = 0
	p.scriptCnt = 0
	p.parallelCredit = 0
	p.baseURL = nil
	pagePool.Put(p)
}
