package crawler

// The Frontier is the crawl scheduler's queue abstraction: the visit
// set is seeded with Push, the dispatcher draws work with Pop, and the
// fault-aware second pass re-admits transient failures with Requeue. The dispatcher is the only
// goroutine that touches a Frontier, so implementations need no
// locking.
//
// Determinism contract: for a given construction (including any seed),
// the same Push/Requeue call sequence must produce the same Pop
// sequence. Pop order may come from a seeded permutation, never from
// map iteration, wall time, or completion timing — the crawl's
// byte-stability across runs and worker counts depends on it. Requeued
// visits must not surface before the primary frontier has drained:
// every initially Pushed visit pops before any Requeued one, which is
// what makes the second pass a distinct pass over the failure set
// rather than interleaved retries.

// Frontier is the scheduler's work queue over visit indices into the
// crawl's site list.
type Frontier interface {
	// Push admits a visit. The crawl seeds the frontier with every index
	// in input order before the first Pop.
	Push(idx int)
	// Pop removes and returns the next visit; ok is false when nothing
	// is currently queued (the crawl may still Requeue afterwards).
	Pop() (idx int, ok bool)
	// Requeue re-admits a visit whose attempt failed on a transient
	// class, for the second pass. Requeued visits pop only after every
	// pushed visit has popped.
	Requeue(idx int)
}

// fifoFrontier is the default scheduler: visits pop in input order, and
// second-pass requeues pop afterwards in requeue order.
type fifoFrontier struct {
	primary []int
	requeue []int
}

// NewFIFOFrontier returns the default first-in-first-out frontier.
func NewFIFOFrontier() Frontier { return &fifoFrontier{} }

func (f *fifoFrontier) Push(idx int) { f.primary = append(f.primary, idx) }

func (f *fifoFrontier) Pop() (int, bool) {
	if len(f.primary) > 0 {
		idx := f.primary[0]
		f.primary = f.primary[1:]
		return idx, true
	}
	if len(f.requeue) > 0 {
		idx := f.requeue[0]
		f.requeue = f.requeue[1:]
		return idx, true
	}
	return 0, false
}

func (f *fifoFrontier) Requeue(idx int) { f.requeue = append(f.requeue, idx) }

// shuffleFrontier pops the primary set in a seeded pseudo-random
// permutation — the order a rank-decorrelated crawl would use, so
// per-host load (shared trackers cluster by rank) spreads across the
// crawl instead of arriving in bursts. Requeues stay FIFO: the second
// pass is small and its order is immaterial. Deterministic for a seed.
type shuffleFrontier struct {
	primary []int
	requeue []int
	state   uint64
}

// NewShuffleFrontier returns a frontier that pops the visit set in a
// seeded random permutation (requeues pop afterwards, in order).
func NewShuffleFrontier(seed uint64) Frontier {
	return &shuffleFrontier{state: seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

func (f *shuffleFrontier) Push(idx int) { f.primary = append(f.primary, idx) }

func (f *shuffleFrontier) Pop() (int, bool) {
	if n := len(f.primary); n > 0 {
		// One Fisher–Yates step per pop: pick a remaining element,
		// swap it to the tail, shrink. xorshift keeps the draw stream
		// self-contained and reproducible.
		f.state ^= f.state << 13
		f.state ^= f.state >> 7
		f.state ^= f.state << 17
		i := int(f.state % uint64(n))
		f.primary[i], f.primary[n-1] = f.primary[n-1], f.primary[i]
		idx := f.primary[n-1]
		f.primary = f.primary[:n-1]
		return idx, true
	}
	if len(f.requeue) > 0 {
		idx := f.requeue[0]
		f.requeue = f.requeue[1:]
		return idx, true
	}
	return 0, false
}

func (f *shuffleFrontier) Requeue(idx int) { f.requeue = append(f.requeue, idx) }

// SecondPass configures the fault-aware second pass: once the primary
// frontier drains, visits whose landing failed on a transient class
// (conn-reset, timeout, truncated — plus circuit-open sheds) are
// re-crawled, and only the re-crawl's record is emitted, exactly as a
// real measurement crawl re-runs its failure set and keeps the second
// result. The re-crawl is made distinguishable from the first attempt
// on every deterministic axis a later crawl differs on: its browser's
// virtual clock starts VClockOffsetMs later (so host flap schedules can
// have moved on), and its request attempt numbers continue past the
// first pass's budget (so per-attempt fault decisions draw fresh).
// Second-pass request records carry the pass marker in
// instrument.RequestEvent.Attempt.
type SecondPass struct {
	// Enabled turns the second pass on.
	Enabled bool
	// VClockOffsetMs is the virtual-clock head start of second-pass
	// browsers (default 45000 ms — 1.5 default flap periods).
	VClockOffsetMs float64
}

// offsetMs returns the effective virtual-clock offset.
func (sp SecondPass) offsetMs() float64 {
	if sp.VClockOffsetMs > 0 {
		return sp.VClockOffsetMs
	}
	return 45000
}
