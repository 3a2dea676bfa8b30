package comm

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clique"
)

// FuzzAllToAllChunking drives AllToAll with pseudo-random stream shapes
// under varying per-pair budgets and checks, on every backend, that (a)
// each destination receives exactly the stream each sender owed it, in
// order, in a slice with cap == len, (b) the round count matches the
// collective's contract (1 + ceil(maxLinkLoad / wpp), zero-traffic
// instances pay only the length round), (c) every (round, peer) of every
// node's transcript carries as many words as under refAllToAll, whose
// first round is a MaxWord broadcast, and (d) both backends agree on
// Stats.
//
// Every instance mixes stream lengths on each side of the chunk size:
// empty, shorter than wpp (complete after one round), exactly wpp,
// longer than wpp, and one heaviest stream that sets the agreed
// maximum. At wpp = 1 the short stream is empty.
func FuzzAllToAllChunking(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(1))
	f.Add(uint64(7), uint8(6), uint8(3))
	f.Add(uint64(42), uint8(3), uint8(7))
	f.Add(uint64(99), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, wppRaw uint8) {
		n := 3 + int(nRaw%7)     // 3..9 nodes, at least six links
		wpp := 1 + int(wppRaw%8) // 1..8 words per pair

		rng := rand.New(rand.NewPCG(seed, uint64(n*100+wpp)))
		lengths := []func() int{
			func() int { return 0 },
			func() int { return max(0, min(wpp-1, 1+rng.IntN(wpp))) },
			func() int { return wpp },
			func() int { return wpp + 1 + rng.IntN(wpp) },
		}
		heaviest := func() int { return 2*wpp + 1 + rng.IntN(wpp) }
		var links [][2]int
		for v := 0; v < n; v++ {
			for dst := 0; dst < n; dst++ {
				if dst != v {
					links = append(links, [2]int{v, dst})
				}
			}
		}
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		queues := make([][][]uint64, n) // queues[v][t] = words v owes t
		for v := range queues {
			queues[v] = make([][]uint64, n)
		}
		maxLoad := 0
		for i, link := range links {
			var l int
			switch {
			case i == 0:
				l = heaviest()
			case i <= len(lengths):
				l = lengths[i-1]()
			default:
				l = lengths[rng.IntN(len(lengths))]()
			}
			v, dst := link[0], link[1]
			for j := 0; j < l; j++ {
				queues[v][dst] = append(queues[v][dst], uint64(v)<<32|uint64(dst)<<16|uint64(j))
			}
			if l > maxLoad {
				maxLoad = l
			}
		}

		var refStats *clique.Stats
		for _, backend := range clique.Backends() {
			cfg := clique.Config{N: n, WordsPerPair: wpp, Backend: backend, RecordTranscript: true}
			got := make([][][]uint64, n)
			res, err := clique.Run(cfg, func(nd *clique.Node) {
				got[nd.ID()] = AllToAll(nd, slices.Clone(queues[nd.ID()]))
			})
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			refRes, err := clique.Run(cfg, func(nd *clique.Node) {
				refAllToAll(nd, slices.Clone(queues[nd.ID()]))
			})
			if err != nil {
				t.Fatalf("%s reference: %v", backend, err)
			}
			if have, want := sentShape(res), sentShape(refRes); !reflect.DeepEqual(have, want) {
				t.Fatalf("%s: words per (node, round, peer) %v, reference %v", backend, have, want)
			}
			wantRounds := 1
			if maxLoad > 0 {
				wantRounds += (maxLoad + wpp - 1) / wpp
			}
			if res.Stats.Rounds != wantRounds {
				t.Fatalf("%s: rounds = %d, want %d (maxLoad %d, wpp %d)",
					backend, res.Stats.Rounds, wantRounds, maxLoad, wpp)
			}
			for to := 0; to < n; to++ {
				for from := 0; from < n; from++ {
					if from == to {
						continue
					}
					want := queues[from][to]
					have := got[to][from]
					if len(want) == 0 && len(have) == 0 {
						continue
					}
					if !reflect.DeepEqual(have, want) {
						t.Fatalf("%s: stream %d->%d = %v, want %v", backend, from, to, have, want)
					}
					if cap(have) != len(have) {
						t.Fatalf("%s: stream %d->%d has cap %d, len %d", backend, from, to, cap(have), len(have))
					}
				}
			}
			if refStats == nil {
				s := res.Stats
				refStats = &s
			} else if *refStats != res.Stats {
				t.Fatalf("%s stats %+v diverge from reference %+v", backend, res.Stats, *refStats)
			}
		}
	})
}

// FuzzRoute holds Route and RouteDirect to the reference packet router
// (route_ref_test.go) on fuzzed instances: record-for-record equal
// deliveries and equal rounds and words, on every backend.
func FuzzRoute(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(7), uint8(26), uint8(1), uint8(2), uint8(2))
	f.Add(uint64(42), uint8(1), uint8(4), uint8(7), uint8(3))
	f.Add(uint64(99), uint8(0), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, wRaw, wppRaw, kindRaw uint8) {
		n := 1 + int(nRaw%32)    // 1..32 nodes
		w := 1 + int(wRaw%5)     // 1..5 payload words
		wpp := 1 + int(wppRaw%8) // 1..8 words per pair
		kind := routeKinds[int(kindRaw)%len(routeKinds)]
		checkRouteMatchesReference(t, routeCase(kind, n, w, seed), w, wpp, seed)
	})
}
