// Package shard coordinates a sharded crawl: it splits one crawl's
// unit space into N deterministic shards (Assign), exchanges scheduler
// feedback between shard worker processes by tailing their journals
// (JournalExchange, indexed by a MemExchange), supervises the workers
// to completion with crashed-shard adoption (Coordinator), and merges
// the per-shard -sort outputs back into a stream byte-identical to the
// unsharded crawl's (MergeSortedJSONL).
//
// The division of labour with internal/crawler: the crawler knows how
// to BE one shard (crawler.ShardPlan replicates the scheduler and
// restricts execution to owned units); this package knows how to make
// N of them into one crawl.
package shard

import (
	"hash/fnv"

	"cookieguard/internal/urlutil"
)

// Assign deterministically maps each site URL to a shard in [0, n) by
// a seeded hash of the site's eTLD+1. Hashing the registrable domain —
// not the raw URL or the site index — pins every variant of a host
// (www or bare, any path) and every pass/vantage/persona unit of a
// site to one shard, so a site's second-pass bookkeeping never
// straddles shards; the seed decorrelates the partition from any other
// hash of the same domains. n <= 1 assigns everything to shard 0.
func Assign(urls []string, n int, seed uint64) []int {
	out := make([]int, len(urls))
	if n <= 1 {
		return out
	}
	for i, u := range urls {
		d := urlutil.RegistrableDomain(u)
		if d == "" {
			d = u
		}
		h := fnv.New64a()
		var sbuf [8]byte
		for b := 0; b < 8; b++ {
			sbuf[b] = byte(seed >> (8 * b))
		}
		h.Write(sbuf[:])
		h.Write([]byte(d))
		out[i] = int(h.Sum64() % uint64(n))
	}
	return out
}

// Owned expands an Assign result into per-shard ownership masks, the
// form crawler.ShardPlan consumes: Owned(a, n)[s][i] reports whether
// shard s owns site i.
func Owned(assign []int, n int) [][]bool {
	if n < 1 {
		n = 1
	}
	out := make([][]bool, n)
	for s := range out {
		out[s] = make([]bool, len(assign))
	}
	for i, s := range assign {
		out[s][i] = true
	}
	return out
}
