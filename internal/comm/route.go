package comm

import (
	"repro/internal/clique"
	"repro/internal/trace"
)

// splitmix64 is the fixed hash used to pick routing intermediates. It is
// part of the (uniform, deterministic) algorithm, playing the role of
// Lenzen's explicit balancing computation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Route delivers an arbitrary multiset of fixed-width messages. recs is
// a flat run of len(recs)/(w+1) records [dst, payload...], each with w
// payload words. Route returns one flat run of [src, payload...] records
// addressed to this node: records that never left it first, then the
// arrivals by sender ascending, each sender's in stream order. The
// result is caller-owned and never aliases recs. All nodes must call
// Route together (it is a global operation) with the same w. Cost:
// O((s + r) * (w + 2) / wordsPerPair) rounds plus a constant, where s*n
// and r*n bound per-node send and receive counts — the Lenzen [43]
// regime.
//
// seed selects the intermediate assignment; algorithms fix it so the
// whole computation stays deterministic.
func Route(nd clique.Endpoint, recs []uint64, w int, seed uint64) []uint64 {
	count := records(nd, recs, w)
	defer trace.Op(nd, "Route", count*(w+2))()
	n := nd.N()
	me := nd.ID()

	// Phase 1: spread every record to a pseudo-random intermediate.
	// Wire format per record: dst, src, payload words. A first pass
	// sizes each queue so the second appends without growing.
	mid := func(idx int) int {
		return int(splitmix64(seed^uint64(me)*0x100000001b3^uint64(idx)) % uint64(n))
	}
	sizes := make([]int, n)
	for idx := 0; idx < count; idx++ {
		sizes[mid(idx)] += w + 2
	}
	queues := carveQueues(sizes)
	for idx, off := 0, 0; idx < count; idx, off = idx+1, off+w+1 {
		dst := recs[off]
		if dst >= uint64(n) {
			nd.Fail("comm: record %d has bad destination %d", idx, int64(dst))
		}
		m := mid(idx)
		queues[m] = append(append(queues[m], dst, uint64(me)), recs[off+1:off+1+w]...)
	}
	// Records whose intermediate is the sender itself never hit the
	// network in phase 1; hold them aside and let them join phase 2.
	held := queues[me]
	queues[me] = nil

	in := AllToAll(nd, queues)

	// Phase 2: every intermediate forwards to true destinations, held
	// records first. Wire format per record: src, payload words — the
	// output format. Records already at their destination collect in
	// queues2[me] and are delivered ahead of the phase-2 arrivals.
	streams := append([][]uint64{held}, in...)
	clear(sizes)
	for _, stream := range streams {
		for off := 0; off+w+2 <= len(stream); off += w + 2 {
			sizes[stream[off]] += w + 1
		}
	}
	queues2 := carveQueues(sizes)
	for _, stream := range streams {
		for off := 0; off+w+2 <= len(stream); off += w + 2 {
			dst := stream[off]
			queues2[dst] = append(queues2[dst], stream[off+1:off+2+w]...)
		}
	}
	local := queues2[me]
	queues2[me] = nil

	return concat(local, AllToAll(nd, queues2))
}

// records checks the flat record contract of Route and RouteDirect —
// len(recs) a multiple of the record width w+1 — and returns the
// record count.
func records(nd clique.Endpoint, recs []uint64, w int) int {
	if w < 0 || len(recs)%(w+1) != 0 {
		nd.Fail("comm: %d words is not a whole number of width-%d records", len(recs), w+1)
	}
	return len(recs) / (w + 1)
}

// carveQueues returns one empty queue per destination with capacity
// sizes[t], all carved from a single backing array.
func carveQueues(sizes []int) [][]uint64 {
	total := 0
	for _, size := range sizes {
		total += size
	}
	backing := make([]uint64, total)
	queues := make([][]uint64, len(sizes))
	for t, size := range sizes {
		queues[t] = backing[:0:size]
		backing = backing[size:]
	}
	return queues
}

// concat returns local followed by every stream of in, in sender order,
// in one exactly sized caller-owned slice (nil when all are empty).
func concat(local []uint64, in [][]uint64) []uint64 {
	total := len(local)
	for _, stream := range in {
		total += len(stream)
	}
	if total == 0 {
		return nil
	}
	out := make([]uint64, 0, total)
	out = append(out, local...)
	for _, stream := range in {
		out = append(out, stream...)
	}
	return out
}

// RouteDirect is the ablation baseline: every record travels straight
// to its destination with no balancing. It takes and returns records in
// Route's formats; a record addressed to the sender itself is a
// contract violation. Its round count is 1 + the maximum number of
// words any single ordered pair must carry, so skewed instances degrade
// to Theta(max pair load) instead of O(s + r).
func RouteDirect(nd clique.Endpoint, recs []uint64, w int) []uint64 {
	count := records(nd, recs, w)
	defer trace.Op(nd, "RouteDirect", count*(w+1))()
	n := nd.N()
	me := nd.ID()
	sizes := make([]int, n)
	for idx, off := 0, 0; idx < count; idx, off = idx+1, off+w+1 {
		dst := recs[off]
		if dst >= uint64(n) {
			nd.Fail("comm: record %d has bad destination %d", idx, int64(dst))
		}
		if dst == uint64(me) {
			nd.Fail("comm: RouteDirect record addressed to self")
		}
		sizes[dst] += w + 1
	}
	queues := carveQueues(sizes)
	for off := 0; off < len(recs); off += w + 1 {
		dst := recs[off]
		queues[dst] = append(append(queues[dst], uint64(me)), recs[off+1:off+1+w]...)
	}
	return concat(nil, AllToAll(nd, queues))
}
