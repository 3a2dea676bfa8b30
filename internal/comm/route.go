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
// result is caller-owned, exactly sized (cap == len) and never aliases
// recs. All nodes must call Route together (it is a global operation)
// with the same w. Cost: O((s + r) * (w + 2) / wordsPerPair) rounds plus
// a constant, where s*n and r*n bound per-node send and receive counts —
// the Lenzen [43] regime.
//
// Each phase is one allToAll: a length round, after which every node
// knows the exact size of what it will receive, then the data rounds.
// Records are written once per hop — from recs, or from phase 1's
// arrivals, straight into the mailbox, and from the mailbox into the
// array that phase 2 returns as the result.
//
// seed selects the intermediate assignment; algorithms fix it so the
// whole computation stays deterministic.
func Route(nd clique.Endpoint, recs []uint64, w int, seed uint64) []uint64 {
	count := records(nd, recs, w)
	defer trace.Op(nd, "Route", count*(w+2))()
	n := nd.N()
	me := nd.ID()
	w1, w2 := w+2, w+1
	stage := make([]uint64, w1)

	// Phase 1: spread every record to a pseudo-random intermediate.
	// Wire format per record: dst, src, payload words. Records whose
	// intermediate is the sender itself never hit the network in phase
	// 1; they are held and join phase 2.
	mids := make([]int32, count)
	for idx := range mids {
		if dst := recs[idx*w2]; dst >= uint64(n) {
			nd.Fail("comm: record %d has bad destination %d", idx, int64(dst))
		}
		mids[idx] = int32(splitmix64(seed^uint64(me)*0x100000001b3^uint64(idx)) % uint64(n))
	}
	byMid, midAt := groupBy(mids, n)
	put1 := func(idx int32, dst []uint64) {
		rec := recs[int(idx)*w2:][:w2]
		dst = dst[:w1]
		dst[0], dst[1] = rec[0], uint64(me)
		for i, x := range rec[1:] {
			dst[2+i] = x
		}
	}
	in, lens := allToAll(nd, groupSizes(midAt, me, w1), func(t, off int, buf []uint64) {
		fillRecords(buf, off, byMid[midAt[t]:midAt[t+1]], stage[:w1], put1)
	}, 0)
	held := byMid[midAt[me]:midAt[me+1]]

	// Phase 2: every intermediate forwards to true destinations. Wire
	// format per record: src, payload words — the output format. Record
	// ids below len(held) are the held records, the rest phase 1's
	// arrivals in sender order; grouping them stably by destination
	// keeps that order within every stream. Records already at their
	// destination fill the head of the result, ahead of the arrivals.
	for p, k := range lens {
		if k%w1 != 0 {
			nd.Fail("comm: Route received %d words from %d, not whole width-%d records", k, p, w1)
		}
	}
	nh := len(held)
	dsts := make([]int32, nh+len(in)/w1)
	for k, idx := range held {
		dsts[k] = int32(recs[int(idx)*w2])
	}
	for k := nh; k < len(dsts); k++ {
		dst := in[(k-nh)*w1]
		if dst >= uint64(n) {
			nd.Fail("comm: Route received a record with bad destination %d", int64(dst))
		}
		dsts[k] = int32(dst)
	}
	byDst, dstAt := groupBy(dsts, n)
	put2 := func(id int32, dst []uint64) {
		dst = dst[:w2]
		if int(id) < nh {
			dst[0] = uint64(me)
			for i, x := range recs[int(held[id])*w2+1:][:w] {
				dst[1+i] = x
			}
		} else {
			for i, x := range in[(int(id)-nh)*w1+1:][:w2] {
				dst[i] = x
			}
		}
	}
	local := byDst[dstAt[me]:dstAt[me+1]]
	out, _ := allToAll(nd, groupSizes(dstAt, me, w2), func(t, off int, buf []uint64) {
		fillRecords(buf, off, byDst[dstAt[t]:dstAt[t+1]], stage[:w2], put2)
	}, len(local)*w2)
	for k, id := range local {
		put2(id, out[k*w2:(k+1)*w2])
	}
	return out
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

// groupBy is a stable counting sort of the indices of keys by key value
// in 0..n-1: group t is order[start[t]:start[t+1]], ascending.
func groupBy(keys []int32, n int) (order []int32, start []int) {
	start = make([]int, n+1)
	for _, k := range keys {
		start[k+1]++
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	// Placing advances start[k] to the end of group k, which is where
	// group k+1 starts; one shift restores the starts.
	order = make([]int32, len(keys))
	for i, k := range keys {
		order[start[k]] = int32(i)
		start[k]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return order, start
}

// groupSizes returns the stream lengths of width-word records grouped
// by destination as start describes, with nothing owed to node me.
func groupSizes(start []int, me, width int) []int {
	sizes := make([]int, len(start)-1)
	for t := range sizes {
		if t != me {
			sizes[t] = (start[t+1] - start[t]) * width
		}
	}
	return sizes
}

// fillRecords writes words [off, off+len(buf)) of the stream formed by
// the records ids, each len(stage) words long, where put(id, dst)
// writes record id whole into dst. Whole records go straight into buf;
// only a record that a chunk boundary cuts is built in stage and copied
// in part. The put functions copy their few payload words in a loop:
// at the two payload words of subgraph's edge records that beats a
// memmove call per record.
func fillRecords(buf []uint64, off int, ids []int32, stage []uint64, put func(id int32, dst []uint64)) {
	width := len(stage)
	i, skip := off/width, off%width
	for len(buf) > 0 {
		if skip == 0 && len(buf) >= width {
			put(ids[i], buf[:width:width])
			buf = buf[width:]
		} else {
			put(ids[i], stage)
			buf = buf[copy(buf, stage[skip:]):]
			skip = 0
		}
		i++
	}
}

// RouteDirect is the ablation baseline: every record travels straight
// to its destination with no balancing. It takes and returns records in
// Route's formats, the result exactly sized; a record addressed to the
// sender itself is a contract violation. Its round count is 1 + the
// maximum number of words any single ordered pair must carry, so skewed
// instances degrade to Theta(max pair load) instead of O(s + r).
func RouteDirect(nd clique.Endpoint, recs []uint64, w int) []uint64 {
	count := records(nd, recs, w)
	defer trace.Op(nd, "RouteDirect", count*(w+1))()
	n := nd.N()
	me := nd.ID()
	w1 := w + 1
	dsts := make([]int32, count)
	for idx := range dsts {
		dst := recs[idx*w1]
		if dst >= uint64(n) {
			nd.Fail("comm: record %d has bad destination %d", idx, int64(dst))
		}
		if dst == uint64(me) {
			nd.Fail("comm: RouteDirect record addressed to self")
		}
		dsts[idx] = int32(dst)
	}
	byDst, dstAt := groupBy(dsts, n)
	put := func(idx int32, dst []uint64) {
		dst = dst[:w1]
		dst[0] = uint64(me)
		for i, x := range recs[int(idx)*w1+1:][:w] {
			dst[1+i] = x
		}
	}
	stage := make([]uint64, w1)
	out, _ := allToAll(nd, groupSizes(dstAt, me, w1), func(t, off int, buf []uint64) {
		fillRecords(buf, off, byDst[dstAt[t]:dstAt[t+1]], stage, put)
	}, 0)
	return out
}
