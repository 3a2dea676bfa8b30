package comm

import (
	"repro/internal/clique"
	"repro/internal/trace"
)

// Packet is one routed message: a fixed-width payload bound for Dst.
// Within a single Route call all packets must have the same payload
// width, which keeps the wire format self-delimiting.
type Packet struct {
	Src     int
	Dst     int
	Payload []uint64
}

// splitmix64 is the fixed hash used to pick routing intermediates. It is
// part of the (uniform, deterministic) algorithm, playing the role of
// Lenzen's explicit balancing computation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Route delivers an arbitrary multiset of fixed-width packets and returns
// the packets addressed to this node, with Src filled in. All nodes must
// call Route together (it is a global operation), and every packet in the
// instance must have payload width w. Cost: O((s + r) * (w + 2) /
// wordsPerPair) rounds plus a constant, where s*n and r*n bound per-node
// send and receive counts — the Lenzen [43] regime.
//
// seed selects the intermediate assignment; algorithms fix it so the
// whole computation stays deterministic.
func Route(nd clique.Endpoint, packets []Packet, w int, seed uint64) []Packet {
	defer trace.Op(nd, "Route", len(packets)*(w+2))()
	n := nd.N()
	me := nd.ID()

	// Phase 1: spread every packet to a pseudo-random intermediate.
	// Wire format per packet: dst, src, payload words. A first pass
	// sizes each queue so the second appends without growing.
	mid := func(idx int) int {
		return int(splitmix64(seed^uint64(me)*0x100000001b3^uint64(idx)) % uint64(n))
	}
	sizes := make([]int, n)
	for idx := range packets {
		sizes[mid(idx)] += w + 2
	}
	queues := carveQueues(sizes)
	for idx, p := range packets {
		if len(p.Payload) != w {
			nd.Fail("comm: packet %d has payload width %d, instance width is %d", idx, len(p.Payload), w)
		}
		if p.Dst < 0 || p.Dst >= n {
			nd.Fail("comm: packet %d has bad destination %d", idx, p.Dst)
		}
		m := mid(idx)
		queues[m] = append(append(queues[m], uint64(p.Dst), uint64(me)), p.Payload...)
	}
	// Packets whose intermediate is the sender itself never hit the
	// network in phase 1; hold them aside and let them join phase 2.
	held := queues[me]
	queues[me] = nil

	in := AllToAll(nd, queues)

	// Phase 2: every intermediate forwards to true destinations, held
	// packets first. Wire format per packet: src, payload words. Packets
	// already at their destination collect in queues2[me] and are
	// delivered ahead of the phase-2 arrivals.
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

	return unmarshal(me, w, local, AllToAll(nd, queues2))
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

// unmarshal decodes the (src, payload) records of width w+1 in local and
// then in each stream of in, in order, into packets addressed to me. The
// output is sized once and the payloads are cap-limited slices of one
// backing array, so appending to one payload never overwrites another.
// It returns nil when there is nothing to deliver.
func unmarshal(me, w int, local []uint64, in [][]uint64) []Packet {
	total := len(local) / (w + 1)
	for _, stream := range in {
		total += len(stream) / (w + 1)
	}
	if total == 0 {
		return nil
	}
	out := make([]Packet, 0, total)
	backing := make([]uint64, total*w)
	decode := func(stream []uint64) {
		for off := 0; off+w+1 <= len(stream); off += w + 1 {
			payload := backing[:w:w]
			backing = backing[w:]
			copy(payload, stream[off+1:off+1+w])
			out = append(out, Packet{Src: int(stream[off]), Dst: me, Payload: payload})
		}
	}
	decode(local)
	for _, stream := range in {
		decode(stream)
	}
	return out
}

// RouteDirect is the ablation baseline: every packet travels straight to
// its destination with no balancing. Its round count is 1 + the maximum
// number of words any single ordered pair must carry, so skewed instances
// degrade to Theta(max pair load) instead of O(s + r).
func RouteDirect(nd clique.Endpoint, packets []Packet, w int) []Packet {
	defer trace.Op(nd, "RouteDirect", len(packets)*(w+1))()
	n := nd.N()
	me := nd.ID()
	queues := make([][]uint64, n)
	for idx, p := range packets {
		if len(p.Payload) != w {
			nd.Fail("comm: packet %d has payload width %d, instance width is %d", idx, len(p.Payload), w)
		}
		if p.Dst == me {
			nd.Fail("comm: RouteDirect packet addressed to self")
		}
		queues[p.Dst] = append(append(queues[p.Dst], uint64(me)), p.Payload...)
	}
	return unmarshal(me, w, nil, AllToAll(nd, queues))
}
