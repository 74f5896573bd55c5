package crawler

// Sharded crawling: one crawl's unit space (site, vantage, persona)
// split across N shard runners whose merged output is byte-identical
// to the unsharded crawl.
//
// The partition is by SITE (a seeded hash of the site's eTLD+1,
// computed in internal/shard), so every pass and every (vantage,
// persona) cell of a site belongs to the same shard and a site's
// second-pass bookkeeping never straddles shards. That alone is not
// enough for byte-identity under the circuit breaker: breaker state is
// per HOST, and third-party hosts (trackers, CDNs) are shared by sites
// in different shards, so a shard folding only its own visits would
// see a different failure history — different gates, different sheds,
// different bytes. Instead of partitioning the scheduler, every shard
// REPLICATES it: each shard runs the full deterministic dispatch over
// all sites, executing visits only for the units it owns and folding
// sibling shards' outcomes from an OutcomeExchange through the same
// feedback path a local worker would use. Because folds apply in
// sorted round order, every shard's lane state machines — frontiers,
// breaker circuits, autopilot estimates, virtual clocks, second-pass
// sets — evolve byte-identically to the unsharded crawl's, so each
// owned visit runs against exactly the gate snapshot it would have
// seen unsharded. Shed decisions are recomputed locally by every
// shard (they are a pure function of the replicated lane state);
// only the owner emits the shed record and counts the stats.
//
// Configurations with no stateful policy (breaker and second pass both
// off) run without an exchange and skip foreign units entirely — a pure
// partition — because no lane state depends on another unit's outcome.

import (
	"context"

	"cookieguard/internal/journal"
)

// ShardPlan restricts one crawl to its owned slice of the unit space.
// See the package comment above for the replication contract.
type ShardPlan struct {
	// Index / Count identify this shard (0-based) among its siblings.
	Index int
	Count int
	// Owned marks the sites this shard crawls, indexed like the crawl's
	// site list. Every (vantage, persona, pass) unit of an owned site
	// belongs to this shard.
	Owned []bool
	// Exchange fetches sibling shards' unit outcomes. Required when the
	// crawl runs a stateful scheduler (breaker or second pass) — the
	// replicated lane state machines cannot fold foreign outcomes
	// without it. Nil otherwise, and then foreign units are skipped.
	Exchange OutcomeExchange
}

// owns reports whether site belongs to this shard. A nil plan owns
// everything (the unsharded crawl).
func (sp *ShardPlan) owns(site int) bool {
	return sp == nil || sp.Owned[site]
}

// OutcomeExchange delivers sibling shards' unit outcomes: Wait blocks
// until the sibling that owns a unit has published it (or ctx is
// done). Records carry only the feedback the lane state machines fold
// — ok, requeue, failure class, virtual duration, per-host accounting —
// never the visit log. Publishing is the owner's journal append: each
// shard journals its owned units write-ahead, so an outcome is visible
// to its siblings from the moment it is durable, and a resumed
// (adopted) shard's earlier outcomes were on disk all along.
type OutcomeExchange interface {
	Wait(ctx context.Context, k journal.Key) (*journal.Record, error)
}
