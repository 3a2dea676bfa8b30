package comm

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clique"
)

// This file keeps the packet-based router that preceded the flat record
// API — same intermediates, wire formats, schedule and delivery order —
// as the reference the equivalence property test and FuzzRoute hold
// Route and RouteDirect to. It rides the earlier AllToAll receive loop
// too (every peer probed, streams grown by append), so the oracle shares
// no receive code with the implementation under test.

// refPacket is one routed message: a fixed-width payload bound for Dst.
type refPacket struct {
	Src     int
	Dst     int
	Payload []uint64
}

func refRoute(nd clique.Endpoint, packets []refPacket, w int, seed uint64) []refPacket {
	n := nd.N()
	me := nd.ID()
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
			nd.Fail("ref: packet %d has payload width %d, instance width is %d", idx, len(p.Payload), w)
		}
		if p.Dst < 0 || p.Dst >= n {
			nd.Fail("ref: packet %d has bad destination %d", idx, p.Dst)
		}
		m := mid(idx)
		queues[m] = append(append(queues[m], uint64(p.Dst), uint64(me)), p.Payload...)
	}
	held := queues[me]
	queues[me] = nil

	in := refAllToAll(nd, queues)

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

	return refUnmarshal(me, w, local, refAllToAll(nd, queues2))
}

func refRouteDirect(nd clique.Endpoint, packets []refPacket, w int) []refPacket {
	n := nd.N()
	me := nd.ID()
	queues := make([][]uint64, n)
	for idx, p := range packets {
		if len(p.Payload) != w {
			nd.Fail("ref: packet %d has payload width %d, instance width is %d", idx, len(p.Payload), w)
		}
		if p.Dst == me {
			nd.Fail("ref: RouteDirect packet addressed to self")
		}
		queues[p.Dst] = append(append(queues[p.Dst], uint64(me)), p.Payload...)
	}
	return refUnmarshal(me, w, nil, refAllToAll(nd, queues))
}

func refUnmarshal(me, w int, local []uint64, in [][]uint64) []refPacket {
	var out []refPacket
	decode := func(stream []uint64) {
		for off := 0; off+w+1 <= len(stream); off += w + 1 {
			payload := append([]uint64(nil), stream[off+1:off+1+w]...)
			out = append(out, refPacket{Src: int(stream[off]), Dst: me, Payload: payload})
		}
	}
	decode(local)
	for _, stream := range in {
		decode(stream)
	}
	return out
}

func refAllToAll(nd clique.Endpoint, queue [][]uint64) [][]uint64 {
	n := nd.N()
	me := nd.ID()
	local := 0
	for _, q := range queue {
		if len(q) > local {
			local = len(q)
		}
	}
	max := int(MaxWord(nd, uint64(local)))
	in := make([][]uint64, n)
	wpp := nd.WordsPerPair()
	for off := 0; off < max; off += wpp {
		for t := 0; t < n; t++ {
			if t == me || off >= len(queue[t]) {
				continue
			}
			nd.SendWords(t, queue[t][off:chunkEnd(off, len(queue[t]), wpp)])
		}
		nd.Tick()
		for p := 0; p < n; p++ {
			if p != me {
				in[p] = nd.RecvInto(p, in[p])
			}
		}
	}
	return in
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

// toRecs flattens packets into Route's input records [dst, payload...].
func toRecs(packets []refPacket) []uint64 {
	var recs []uint64
	for _, p := range packets {
		recs = append(append(recs, uint64(p.Dst)), p.Payload...)
	}
	return recs
}

// fromPackets flattens delivered packets into Route's output records
// [src, payload...].
func fromPackets(packets []refPacket) []uint64 {
	var recs []uint64
	for _, p := range packets {
		recs = append(append(recs, uint64(p.Src)), p.Payload...)
	}
	return recs
}

// routeKinds names the instance shapes the equivalence checks cover.
var routeKinds = []string{"empty", "uniform", "skewed", "self"}

// routeCase builds one instance of the given kind: per node, the packets
// it sends, every payload w words. "skewed" has one sender flooding one
// destination; "self" has every node address only itself.
func routeCase(kind string, n, w int, seed uint64) [][]refPacket {
	rng := rand.New(rand.NewPCG(seed, uint64(n*64+w)))
	instance := make([][]refPacket, n)
	add := func(v, dst int) {
		payload := make([]uint64, w)
		for i := range payload {
			payload[i] = rng.Uint64()
		}
		instance[v] = append(instance[v], refPacket{Dst: dst, Payload: payload})
	}
	switch kind {
	case "uniform":
		for v := 0; v < n; v++ {
			for i := rng.IntN(2*n + 2); i > 0; i-- {
				add(v, rng.IntN(n))
			}
		}
	case "skewed":
		src, dst := rng.IntN(n), rng.IntN(n)
		if n > 1 && dst == src {
			dst = (src + 1) % n
		}
		for i := 2*n + rng.IntN(8); i > 0; i-- {
			add(src, dst)
		}
	case "self":
		for v := 0; v < n; v++ {
			for i := 1 + rng.IntN(4); i > 0; i-- {
				add(v, v)
			}
		}
	}
	return instance
}

// withoutSelf drops the self-addressed packets RouteDirect rejects.
func withoutSelf(instance [][]refPacket) [][]refPacket {
	out := make([][]refPacket, len(instance))
	for v, ps := range instance {
		for _, p := range ps {
			if p.Dst != v {
				out[v] = append(out[v], p)
			}
		}
	}
	return out
}

// checkRouteMatchesReference runs an instance through Route, and its
// non-self-addressed part through RouteDirect, and the same through the
// reference packet router, on every backend. It requires
// record-for-record equal deliveries in exactly sized results
// (cap == len), equal Stats.Rounds, Stats.WordsSent and
// Stats.MaxPairWords, and, up to n = transcribeUpTo, the same number of
// words on every (round, peer) of every node's transcript.
func checkRouteMatchesReference(t *testing.T, instance [][]refPacket, w, wpp int, seed uint64) {
	t.Helper()
	n := len(instance)
	routers := []struct {
		name     string
		instance [][]refPacket
		ref      func(nd clique.Endpoint, ps []refPacket) []refPacket
		flat     func(nd clique.Endpoint, recs []uint64) []uint64
	}{{
		"Route", instance,
		func(nd clique.Endpoint, ps []refPacket) []refPacket { return refRoute(nd, ps, w, seed) },
		func(nd clique.Endpoint, recs []uint64) []uint64 { return Route(nd, recs, w, seed) },
	}, {
		"RouteDirect", withoutSelf(instance),
		func(nd clique.Endpoint, ps []refPacket) []refPacket { return refRouteDirect(nd, ps, w) },
		func(nd clique.Endpoint, recs []uint64) []uint64 { return RouteDirect(nd, recs, w) },
	}}
	for _, r := range routers {
		recs := make([][]uint64, n)
		for v := range recs {
			recs[v] = toRecs(r.instance[v])
		}
		for _, backend := range clique.Backends() {
			cfg := clique.Config{N: n, WordsPerPair: wpp, Backend: backend, RecordTranscript: n <= transcribeUpTo}
			want := make([][]uint64, n)
			refRes, err := clique.Run(cfg, func(nd *clique.Node) {
				want[nd.ID()] = fromPackets(r.ref(nd, r.instance[nd.ID()]))
			})
			if err != nil {
				t.Fatalf("%s reference on %s: %v", r.name, backend, err)
			}
			got := make([][]uint64, n)
			res, err := clique.Run(cfg, func(nd *clique.Node) {
				got[nd.ID()] = r.flat(nd, recs[nd.ID()])
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", r.name, backend, err)
			}
			for v := range got {
				if !slices.Equal(got[v], want[v]) {
					t.Fatalf("%s on %s (n=%d w=%d wpp=%d): node %d got %v, reference %v",
						r.name, backend, n, w, wpp, v, got[v], want[v])
				}
				if cap(got[v]) != len(got[v]) {
					t.Fatalf("%s on %s (n=%d w=%d wpp=%d): node %d's result has cap %d, len %d",
						r.name, backend, n, w, wpp, v, cap(got[v]), len(got[v]))
				}
			}
			if res.Stats.Rounds != refRes.Stats.Rounds || res.Stats.WordsSent != refRes.Stats.WordsSent ||
				res.Stats.MaxPairWords != refRes.Stats.MaxPairWords {
				t.Fatalf("%s on %s (n=%d w=%d wpp=%d): %d rounds, %d words, %d max pair words; reference %d, %d, %d",
					r.name, backend, n, w, wpp, res.Stats.Rounds, res.Stats.WordsSent, res.Stats.MaxPairWords,
					refRes.Stats.Rounds, refRes.Stats.WordsSent, refRes.Stats.MaxPairWords)
			}
			if !reflect.DeepEqual(sentShape(res), sentShape(refRes)) {
				t.Fatalf("%s on %s (n=%d w=%d wpp=%d): words per (node, round, peer) differ from the reference",
					r.name, backend, n, w, wpp)
			}
		}
	}
}

// transcribeUpTo is the largest clique checkRouteMatchesReference
// records transcripts for: at n = 64 they triple the race-detector run
// of TestRouteMatchesReference, while every FuzzRoute clique (n <= 32)
// stays transcribed.
const transcribeUpTo = 32

// sentShape returns, per node, round and peer, how many words a
// transcribed run sent: the schedule with the words' values left out.
func sentShape(res *clique.Result) [][][]int {
	shape := make([][][]int, len(res.Transcripts))
	for v, tr := range res.Transcripts {
		for _, round := range tr.Rounds {
			words := make([]int, len(round.Sent))
			for p, sent := range round.Sent {
				words[p] = len(sent)
			}
			shape[v] = append(shape[v], words)
		}
	}
	return shape
}

// TestRouteMatchesReference is the equivalence property of the flat
// record routers against the packet router they replaced (deliveries,
// exactly sized results, Stats and each (round, peer)'s word count),
// over clique sizes from the trivial n = 1 to n = 64, payload widths 1,
// 2 and 5, and per-pair budgets 1, 3 and 8 (at wpp = 3 the 4-word
// phase-1 records of w = 2 straddle rounds).
func TestRouteMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 27, 64} {
		for _, w := range []int{1, 2, 5} {
			for _, wpp := range []int{1, 3, 8} {
				for k, kind := range routeKinds {
					seed := uint64(n*1000 + w*100 + wpp*10 + k)
					checkRouteMatchesReference(t, routeCase(kind, n, w, seed), w, wpp, seed)
				}
			}
		}
	}
}
