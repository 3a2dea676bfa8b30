package mst

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

// mergeNaive is the reference form of one boruvkaMerge phase: the
// best offered edge per component label kept in a map, applied in
// sorted label order, with an O(n) relabel of comp per merged edge. It
// returns the forest edges the phase adds, in merge order.
func mergeNaive(comp []int, offered []Edge) []Edge {
	bestOf := make(map[int]Edge)
	for _, e := range offered {
		c := comp[e.U]
		if cur, ok := bestOf[c]; !ok || better(e, cur) {
			bestOf[c] = e
		}
	}
	var added []Edge
	for _, e := range stableEdges(bestOf) {
		if comp[e.U] == comp[e.V] {
			continue // the reverse copy already merged us
		}
		added = append(added, normalize(e))
		from, to := comp[e.U], comp[e.V]
		if to > from {
			from, to = to, from
		}
		for v := range comp {
			if comp[v] == from {
				comp[v] = to
			}
		}
	}
	return added
}

// stableEdges returns the per-component best edges in ascending label
// order (map iteration order is not deterministic).
func stableEdges(m map[int]Edge) []Edge {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Edge, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// announce encodes offered, at most n edges, as a phase's
// announcement buffer: n pair words (noEdge in the unused slots), then
// n weight words. Which slot carries an edge does not matter, because
// a candidate counts for its first endpoint's component.
func announce(offered []Edge, n int) []uint64 {
	ann := make([]uint64, 2*n)
	for v := 0; v < n; v++ {
		ann[v] = noEdge
	}
	for v, e := range offered {
		ann[v], ann[n+v] = clique.PairWord(e.U, e.V, n), uint64(e.W)
	}
	return ann
}

// checkMergePhase runs one phase of m on the offered edges and the
// naive merge on comp, then requires the same added edges in the same
// order and the same labels afterwards, and m itself unchanged. It
// returns the next state and whether the phase added an edge.
func checkMergePhase(t testing.TB, m *boruvkaMerge, comp []int, offered []Edge, tag string) (*boruvkaMerge, bool) {
	t.Helper()
	before, beforeUF, beforeForest := slices.Clone(m.comp), slices.Clone(m.uf), slices.Clone(m.forest)
	next := m.phase(announce(offered, len(comp)))
	if !slices.Equal(m.comp, before) || !slices.Equal(m.uf, beforeUF) || !slices.Equal(m.forest, beforeForest) {
		t.Fatalf("%s: phase modified its receiver", tag)
	}
	want := mergeNaive(comp, offered)
	got := next.forest[len(m.forest):]
	if !slices.Equal(got, want) {
		t.Fatalf("%s: merge added %v, naive merge added %v", tag, got, want)
	}
	if !slices.Equal(next.forest[:len(m.forest)], m.forest) {
		t.Fatalf("%s: phase changed earlier forest edges", tag)
	}
	if !slices.Equal(next.comp, comp) {
		t.Fatalf("%s: labels %v, naive labels %v", tag, next.comp, comp)
	}
	return next, len(want) > 0
}

// randomMergeGraph builds a weighted graph of n vertices split into
// random blocks (so it is usually disconnected), with some isolated
// vertices and weights drawn from a small range so ties are common.
func randomMergeGraph(rng *rand.Rand, n int) *graph.Weighted {
	g := graph.NewWeighted(n, false)
	blocks := 1 + rng.Intn(4)
	block := make([]int, n)
	for v := range block {
		block[v] = rng.Intn(blocks)
		if rng.Intn(8) == 0 {
			block[v] = -1 - v // isolated
		}
	}
	p := 0.05 + 0.5*rng.Float64()
	maxW := 1 + rng.Intn(6)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if block[u] == block[v] && rng.Float64() < p {
				g.SetEdge(u, v, int64(1+rng.Intn(maxW)))
			}
		}
	}
	return g
}

// TestBoruvkaMergeMatchesNaive replays Find's phases centrally on
// random graphs: every vertex offers its best edge out of its current
// component, and after every phase the helper and the naive merge
// must agree on the added forest edges, in order, and on every label.
// The finished forest must be Kruskal's.
func TestBoruvkaMergeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(79)
		g := randomMergeGraph(rng, n)
		m := newBoruvkaMerge(n)
		comp := make([]int, n)
		for v := range comp {
			comp[v] = v
		}
		for phase := 0; ; phase++ {
			var offered []Edge
			for me := 0; me < n; me++ {
				best := Edge{U: -1, W: graph.Inf}
				for u := 0; u < n; u++ {
					if comp[u] != comp[me] && g.HasEdge(me, u) {
						if cand := (Edge{U: me, V: u, W: g.W[me][u]}); better(cand, best) {
							best = cand
						}
					}
				}
				if best.U >= 0 {
					offered = append(offered, best)
				}
			}
			var added bool
			if m, added = checkMergePhase(t, m, comp, offered, "trial"); !added {
				break
			}
			if phase > n {
				t.Fatalf("trial %d: no fixpoint after %d phases", trial, phase)
			}
		}
		forest := slices.Clone(m.forest)
		slices.SortFunc(forest, compareEdges)
		if want := KruskalForest(g); !slices.Equal(forest, want) {
			t.Fatalf("trial %d (n=%d): forest %v, Kruskal %v", trial, n, forest, want)
		}
	}
}

// FuzzBoruvkaMerge feeds arbitrary offered edges, grouped into phases,
// to the helper and to the naive merge. The first byte picks n in
// 2..80; every following 4 bytes are one edge (u, v, weight 0..3)
// plus a flag byte whose low bit ends the phase after that edge. A
// phase also ends at n edges, one announcement per node.
func FuzzBoruvkaMerge(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 0, 1, 2, 1, 0, 2, 3, 0, 1, 3, 4, 2, 0, 4, 0, 2, 1})
	f.Add([]byte{79, 1, 2, 3, 0, 2, 1, 3, 0, 9, 70, 0, 1, 70, 9, 0, 0, 5, 5, 1, 1})
	f.Add([]byte{2, 0, 1, 0, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%79
		m := newBoruvkaMerge(n)
		comp := make([]int, n)
		for v := range comp {
			comp[v] = v
		}
		var offered []Edge
		for i := 1; i+4 <= len(data); i += 4 {
			b := data[i : i+4]
			offered = append(offered, Edge{U: int(b[0]) % n, V: int(b[1]) % n, W: int64(b[2] % 4)})
			if b[3]&1 == 1 || len(offered) == n {
				m, _ = checkMergePhase(t, m, comp, offered, "fuzz")
				offered = offered[:0]
			}
		}
		checkMergePhase(t, m, comp, offered, "fuzz")
	})
}

// benchmarkMST runs one MST program per iteration on the sweep's dense
// instance shape (p = 0.3, weights up to 60) at n = 512, on the
// lockstep backend the sweep uses.
func benchmarkMST(b *testing.B, wpp int, find func(nd clique.Endpoint, row []int64) []Edge) {
	const n = 512
	g := graph.GnpWeighted(n, 0.3, 60, false, 1)
	want, _ := KruskalOracle(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := clique.Run(clique.Config{N: n, WordsPerPair: wpp, Backend: "lockstep"}, func(nd *clique.Node) {
			if got := Weight(find(nd, g.W[nd.ID()])); got != want {
				nd.Fail("forest weight %d, want %d", got, want)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFind(b *testing.B) {
	benchmarkMST(b, 1, Find)
}

func BenchmarkSketchFind(b *testing.B) {
	benchmarkMST(b, 32, func(nd clique.Endpoint, row []int64) []Edge {
		f, _ := SketchFind(nd, row, 1)
		return f
	})
}

// BenchmarkSparseFind runs SparseFind on a dense instance at n = 1024
// (p = 0.5, weights up to 60, wpp 8), on the lockstep backend: the
// proposals' cost over a run is what the incident cursor bounds.
func BenchmarkSparseFind(b *testing.B) {
	const n = 1024
	g := graph.GnpWeighted(n, 0.5, 60, false, 1)
	want, _ := KruskalOracle(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := clique.Run(clique.Config{N: n, WordsPerPair: 8, Backend: "lockstep"}, func(nd *clique.Node) {
			forest, _ := SparseFind(nd, g.W[nd.ID()], 1)
			if nd.ID() == 0 && Weight(forest) != want {
				nd.Fail("forest weight %d, want %d", Weight(forest), want)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
