package routing

import (
	"sort"

	"repro/internal/clique"
	"repro/internal/comm"
)

// The communication primitives this package used to carry — AllBroadcast,
// the word reductions, streamPhase, and Lenzen's balanced Route — live in
// package comm now, as BroadcastAll, MaxWord/SumWord, AllToAll, and
// Route. What remains here is the sorting algorithm built on top of them.

// SortResult is this node's share of a global sort.
type SortResult struct {
	// Keys is the node's block of the globally sorted key sequence:
	// node i holds ranks [i*BlockSize, min((i+1)*BlockSize, Total)).
	Keys []uint64
	// BlockSize is ceil(Total / n).
	BlockSize int
	// Total is the global number of keys.
	Total int
}

// Sort globally sorts the multiset of keys held by all nodes (this node
// contributes `keys`; different nodes may contribute different counts)
// and hands node i the i-th block of the sorted order. Keys must be below
// maxKey. This is the role Lenzen's sorting theorem plays in the paper's
// substrate; our implementation is an LSD radix sort with base n: each
// pass costs three bookkeeping rounds plus one comm.Route, and there are
// ceil(log_n maxKey) passes.
func Sort(nd clique.Endpoint, keys []uint64, maxKey uint64) SortResult {
	n := nd.N()
	me := nd.ID()

	total := int(comm.SumWord(nd, uint64(len(keys))))
	block := (total + n - 1) / n
	if total == 0 {
		return SortResult{BlockSize: 0, Total: 0}
	}

	// Current holding: (key, provisional rank) pairs; ranks only matter
	// for stability across passes, initialised by local position after a
	// first routing that balances counts. We simply carry (key) and
	// recompute ranks each pass from the counting information, routing
	// (key) records; stability comes from rank ordering within the pass.
	type item struct {
		key  uint64
		rank int // global rank from the previous pass (stability tiebreak)
	}
	if maxKey == 0 {
		nd.Fail("routing: Sort needs maxKey >= 1")
	}
	items := make([]item, len(keys))
	for i, k := range keys {
		if k >= maxKey {
			nd.Fail("routing: Sort key %d >= maxKey %d", k, maxKey)
		}
		items[i] = item{key: k, rank: me*block + i} // coarse initial order
	}

	// passes = ceil(log_n maxKey), with overflow protection.
	passes := 0
	for reach := uint64(1); reach < maxKey; {
		passes++
		if reach > maxKey/uint64(n) {
			break // reach*n covers maxKey (or would overflow)
		}
		reach *= uint64(n)
	}
	if passes == 0 {
		passes = 1
	}

	div := uint64(1)
	for pass := 0; pass < passes; pass++ {
		// Stable order of local items by current digit, then by carried
		// rank (which encodes the result of previous passes).
		sort.Slice(items, func(i, j int) bool {
			di := items[i].key / div % uint64(n)
			dj := items[j].key / div % uint64(n)
			if di != dj {
				return di < dj
			}
			return items[i].rank < items[j].rank
		})

		// Count per bucket; the one-word exchange hands node b all
		// per-source counts of bucket b.
		cnt := make([]uint64, n)
		for _, it := range items {
			cnt[it.key/div%uint64(n)]++
		}
		srcCnt, _ := comm.AllToAllWord(nd, cnt)

		// Send each source its prefix offset within my bucket.
		offs := make([]uint64, n)
		var run uint64
		for v := 0; v < n; v++ {
			offs[v] = run
			run += srcCnt[v]
		}
		bucketTotal := run
		offFromBucket, _ := comm.AllToAllWord(nd, offs)

		// Broadcast bucket totals so everyone can compute global bucket
		// offsets.
		totals := comm.BroadcastWord(nd, bucketTotal)
		bucketStart := make([]uint64, n+1)
		for b := 0; b < n; b++ {
			bucketStart[b+1] = bucketStart[b] + totals[b]
		}

		// Compute each item's global rank for this pass and route it to
		// its block owner as the record [dst, key, rank]. A first pass
		// ranks the items and counts the remote ones so the records are
		// built in place.
		owner := func(rank int) int { return min(rank/block, n-1) }
		seen := make([]uint64, n) // per-bucket local index among my items
		remote := 0
		for i, it := range items {
			b := int(it.key / div % uint64(n))
			items[i].rank = int(bucketStart[b] + offFromBucket[b] + seen[b])
			seen[b]++
			if owner(items[i].rank) != me {
				remote++
			}
		}
		recs := make([]uint64, 0, 3*remote)
		kept := make([]item, 0, len(items)-remote)
		for _, it := range items {
			if dst := owner(it.rank); dst != me {
				recs = append(recs, uint64(dst), it.key, uint64(it.rank))
			} else {
				kept = append(kept, it)
			}
		}
		recv := comm.Route(nd, recs, 2, 0x5072+uint64(pass))
		items = kept
		for off := 0; off < len(recv); off += 3 {
			items = append(items, item{key: recv[off+1], rank: int(recv[off+2])})
		}
		sort.Slice(items, func(i, j int) bool { return items[i].rank < items[j].rank })
		div *= uint64(n)
	}

	res := SortResult{BlockSize: block, Total: total}
	for _, it := range items {
		res.Keys = append(res.Keys, it.key)
	}
	return res
}
