package mst

import (
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

// runFind runs Find on every backend, checks that every node of every
// backend returned the identical forest and that the backends' Stats
// agree, and returns the forest and the first backend's result.
func runFind(t *testing.T, g *graph.Weighted) ([]Edge, *clique.Result) {
	t.Helper()
	var forest []Edge
	var ref *clique.Result
	for _, backend := range clique.Backends() {
		out := make([][]Edge, g.N)
		res, err := clique.Run(clique.Config{N: g.N, Backend: backend}, func(nd *clique.Node) {
			out[nd.ID()] = Find(nd, g.W[nd.ID()])
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if ref == nil {
			forest, ref = out[0], res
		} else if res.Stats != ref.Stats {
			t.Fatalf("%s: stats %+v, want %+v", backend, res.Stats, ref.Stats)
		}
		for v := range out {
			if !slices.Equal(out[v], forest) {
				t.Fatalf("%s: node %d's forest differs from node 0's on %s", backend, v, clique.Backends()[0])
			}
		}
	}
	return forest, ref
}

func TestMSTMatchesKruskal(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := graph.GnpWeighted(14, 0.35, 30, false, seed)
		wantW, wantCount := KruskalOracle(g)
		forest, _ := runFind(t, g)
		if len(forest) != wantCount {
			t.Fatalf("seed %d: forest has %d edges, want %d", seed, len(forest), wantCount)
		}
		if Weight(forest) != wantW {
			t.Fatalf("seed %d: forest weight %d, want %d", seed, Weight(forest), wantW)
		}
		for _, e := range forest {
			if !g.HasEdge(e.U, e.V) || g.W[e.U][e.V] != e.W {
				t.Fatalf("seed %d: edge %v not in graph", seed, e)
			}
		}
	}
}

func TestMSTForestIsAcyclicAndSpanning(t *testing.T) {
	g := graph.GnpWeighted(12, 0.4, 20, false, 9)
	forest, _ := runFind(t, g)
	// Union-find over forest edges: no cycles, and components match the
	// graph's connectivity.
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for _, e := range forest {
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			t.Fatalf("cycle via edge %v", e)
		}
		parent[ru] = rv
	}
	// Every graph edge must connect vertices in the same forest
	// component (spanning).
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.HasEdge(u, v) && find(u) != find(v) {
				t.Fatalf("edge %d-%d crosses forest components", u, v)
			}
		}
	}
}

func TestMSTPathAndCycleGraphs(t *testing.T) {
	// On a path, the forest is the whole path.
	p := graph.FromUnweighted(graph.Path(8))
	forest, _ := runFind(t, p)
	if len(forest) != 7 || Weight(forest) != 7 {
		t.Errorf("path MST: %d edges weight %d", len(forest), Weight(forest))
	}
	// On a weighted cycle, the heaviest edge is dropped.
	c := graph.NewWeighted(6, false)
	for v := 0; v < 6; v++ {
		c.SetEdge(v, (v+1)%6, int64(v+1))
	}
	forest, _ = runFind(t, c)
	if len(forest) != 5 {
		t.Fatalf("cycle MST has %d edges", len(forest))
	}
	for _, e := range forest {
		if e.W == 6 {
			t.Error("heaviest cycle edge kept")
		}
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := graph.NewWeighted(7, false)
	g.SetEdge(0, 1, 3)
	g.SetEdge(1, 2, 4)
	g.SetEdge(4, 5, 1)
	forest, _ := runFind(t, g)
	if len(forest) != 3 {
		t.Fatalf("forest has %d edges, want 3", len(forest))
	}
}

func TestMSTDisconnectedForest(t *testing.T) {
	// Multi-island forest with isolated vertices: the forest must match
	// the Kruskal oracle edge for edge, island by island.
	g := graph.NewWeighted(16, false)
	for _, e := range [][3]int64{
		{0, 1, 7}, {1, 2, 7}, {0, 2, 7}, // triangle, duplicate weights
		{4, 5, 3}, {5, 6, 9},
		{8, 9, 1}, {9, 10, 1}, {10, 11, 1}, {8, 11, 1}, // 4-cycle, all ties
		// 3, 7, 12..15 isolated
	} {
		g.SetEdge(int(e[0]), int(e[1]), e[2])
	}
	forest, _ := runFind(t, g)
	oracle := KruskalForest(g)
	if len(forest) != len(oracle) {
		t.Fatalf("forest has %d edges, oracle %d", len(forest), len(oracle))
	}
	for i := range forest {
		if forest[i] != oracle[i] {
			t.Fatalf("forest[%d] = %v, oracle %v", i, forest[i], oracle[i])
		}
	}
}

func TestMSTDuplicateWeightTieBreaking(t *testing.T) {
	// With every weight equal, the forest is determined purely by the
	// documented (weight, u, v) tie-break order; the result must be the
	// oracle's forest exactly and identical across repeated runs.
	g := graph.GnpWeighted(15, 0.5, 1, false, 3) // maxW=1: all weights 1
	oracle := KruskalForest(g)
	first, _ := runFind(t, g)
	second, _ := runFind(t, g)
	if len(first) != len(oracle) {
		t.Fatalf("forest has %d edges, oracle %d", len(first), len(oracle))
	}
	for i := range first {
		if first[i] != oracle[i] {
			t.Fatalf("tie-break diverged from (weight,u,v) oracle at edge %d: %v vs %v", i, first[i], oracle[i])
		}
		if first[i] != second[i] {
			t.Fatalf("tie-break not deterministic across runs at edge %d", i)
		}
	}
}

func TestMSTLogRounds(t *testing.T) {
	// Rounds grow logarithmically: 2 * ceil(log2 n) + O(1).
	for _, n := range []int{8, 32, 128} {
		g := graph.GnpWeighted(n, 0.3, 50, false, uint64(n))
		_, res := func() ([]Edge, *clique.Result) {
			out := make([][]Edge, g.N)
			res, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
				out[nd.ID()] = Find(nd, g.W[nd.ID()])
			})
			if err != nil {
				t.Fatal(err)
			}
			return out[0], res
		}()
		logN := 0
		for c := 1; c < n; c *= 2 {
			logN++
		}
		if res.Stats.Rounds > 2*(logN+1)+2 {
			t.Errorf("n=%d: %d rounds exceeds 2(log n + 1)+2 = %d", n, res.Stats.Rounds, 2*(logN+1)+2)
		}
	}
}

func TestMSTEmptyGraph(t *testing.T) {
	g := graph.NewWeighted(5, false)
	forest, _ := runFind(t, g)
	if len(forest) != 0 {
		t.Errorf("edgeless graph produced forest %v", forest)
	}
}

func TestComponents(t *testing.T) {
	g := graph.NewWeighted(8, false)
	g.SetEdge(0, 1, 2)
	g.SetEdge(1, 2, 3)
	g.SetEdge(4, 5, 1)
	g.SetEdge(6, 7, 1)
	want := []int{0, 0, 0, 3, 4, 4, 6, 6}
	_, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
		got := Components(nd, g.W[nd.ID()])
		for v := range want {
			if got[v] != want[v] {
				nd.Fail("comp[%d] = %d, want %d", v, got[v], want[v])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
