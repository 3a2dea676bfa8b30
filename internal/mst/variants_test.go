package mst

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

// runSketchFind runs SketchFind on one backend and checks every node
// returned the identical forest.
func runSketchFind(t *testing.T, g *graph.Weighted, wpp int, backend string, seed uint64) ([]Edge, SketchStats, *clique.Result) {
	t.Helper()
	out := make([][]Edge, g.N)
	stats := make([]SketchStats, g.N)
	res, err := clique.Run(clique.Config{N: g.N, WordsPerPair: wpp, Backend: backend}, func(nd *clique.Node) {
		out[nd.ID()], stats[nd.ID()] = SketchFind(nd, g.W[nd.ID()], seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N; v++ {
		if len(out[v]) != len(out[0]) {
			t.Fatalf("nodes 0 and %d disagree on SketchFind forest size", v)
		}
		for i := range out[v] {
			if out[v][i] != out[0][i] {
				t.Fatalf("nodes 0 and %d disagree on SketchFind edge %d", v, i)
			}
		}
		if stats[v] != stats[0] {
			t.Fatalf("nodes 0 and %d disagree on SketchStats", v)
		}
	}
	return out[0], stats[0], res
}

// runSparseFind runs SparseFind on one backend; the forest comes from
// the coordinator, everyone else must return nil.
func runSparseFind(t *testing.T, g *graph.Weighted, wpp int, backend string, seed uint64) ([]Edge, SparseStats, *clique.Result) {
	t.Helper()
	out := make([][]Edge, g.N)
	stats := make([]SparseStats, g.N)
	res, err := clique.Run(clique.Config{N: g.N, WordsPerPair: wpp, Backend: backend}, func(nd *clique.Node) {
		out[nd.ID()], stats[nd.ID()] = SparseFind(nd, g.W[nd.ID()], seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N; v++ {
		if out[v] != nil {
			t.Fatalf("node %d returned a SparseFind forest; only the coordinator should", v)
		}
		if stats[v].Phases != stats[0].Phases {
			t.Fatalf("nodes 0 and %d disagree on phase count", v)
		}
	}
	return out[0], stats[0], res
}

func sameForest(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkForestValid is the union-find tree validity checker: forest
// edges are real graph edges, acyclic, and span the graph's
// connectivity.
func checkForestValid(t *testing.T, g *graph.Weighted, forest []Edge, tag string) {
	t.Helper()
	uf := newUnionFind(g.N)
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) || g.W[e.U][e.V] != e.W {
			t.Fatalf("%s: edge %v not in graph", tag, e)
		}
		if !uf.union(e.U, e.V) {
			t.Fatalf("%s: cycle via edge %v", tag, e)
		}
	}
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.HasEdge(u, v) && uf.find(u) != uf.find(v) {
				t.Fatalf("%s: edge %d-%d crosses forest components", tag, u, v)
			}
		}
	}
}

// TestMSTVariantsAgreeExactly is the cross-algorithm equivalence
// satellite: over a randomized corpus (dense, sparse, disconnected,
// duplicate weights), Borůvka, SketchFind, SparseFind and the Kruskal
// oracle all produce the identical edge list — not just equal weight —
// on both backends, because all four share the (W, U, V) total order.
func TestMSTVariantsAgreeExactly(t *testing.T) {
	corpus := []struct {
		name string
		g    *graph.Weighted
	}{
		{"dense16", graph.GnpWeighted(16, 0.6, 40, false, 1)},
		{"sparse24", graph.GnpWeighted(24, 0.15, 100, false, 2)},
		{"dense32", graph.GnpWeighted(32, 0.5, 25, false, 3)},
		{"ties20", graph.GnpWeighted(20, 0.5, 3, false, 4)}, // heavy duplicate weights
		{"disc", func() *graph.Weighted {
			g := graph.NewWeighted(18, false)
			// Three islands, one isolated vertex.
			for _, e := range [][3]int64{{0, 1, 5}, {1, 2, 5}, {2, 3, 1}, {0, 3, 5},
				{5, 6, 2}, {6, 7, 2}, {5, 7, 2},
				{9, 10, 4}, {10, 11, 4}, {11, 12, 4}, {9, 12, 4}, {9, 11, 4}} {
				g.SetEdge(int(e[0]), int(e[1]), e[2])
			}
			return g
		}()},
	}
	for _, tc := range corpus {
		oracle := KruskalForest(tc.g)
		boruvka, _ := runFind(t, tc.g)
		if !sameForest(boruvka, oracle) {
			t.Fatalf("%s: Borůvka forest != Kruskal oracle", tc.name)
		}
		for _, backend := range clique.Backends() {
			skf, _, _ := runSketchFind(t, tc.g, 32, backend, 7)
			if !sameForest(skf, oracle) {
				t.Errorf("%s/%s: SketchFind forest %v != oracle %v", tc.name, backend, skf, oracle)
			}
			spf, _, _ := runSparseFind(t, tc.g, 8, backend, 7)
			if !sameForest(spf, oracle) {
				t.Errorf("%s/%s: SparseFind forest %v != oracle %v", tc.name, backend, spf, oracle)
			}
		}
		checkForestValid(t, tc.g, oracle, tc.name)
	}

	// The sweep sizes, on the sweep's instance shapes (mst and
	// mst-sketch at p = 0.3, mst-sparse at p = 0.5, weights up to 60),
	// against a Kruskal that sorts with compareEdges rather than
	// sortEdges. Lockstep only: the goroutine engine's per-link
	// allocation makes n = 1024 slow, and the backend tests above
	// already pin the two engines to each other.
	for _, n := range []int{512, 1024} {
		g := graph.GnpWeighted(n, 0.3, 60, false, uint64(n))
		oracle := kruskalSortFunc(g)
		if got := KruskalForest(g); !sameForest(got, oracle) {
			t.Fatalf("n=%d: KruskalForest differs from the SortFunc Kruskal", n)
		}
		if got, _ := runFind(t, g); !sameForest(got, oracle) {
			t.Errorf("n=%d: Find forest differs from the SortFunc Kruskal", n)
		}
		if got, _, _ := runSketchFind(t, g, 32, "lockstep", 7); !sameForest(got, oracle) {
			t.Errorf("n=%d: SketchFind forest differs from the SortFunc Kruskal", n)
		}
		dense := graph.GnpWeighted(n, 0.5, 60, false, uint64(n))
		if got, _, _ := runSparseFind(t, dense, 8, "lockstep", 7); !sameForest(got, kruskalSortFunc(dense)) {
			t.Errorf("n=%d: SparseFind forest differs from the SortFunc Kruskal", n)
		}
	}
}

// kruskalSortFunc is KruskalForest with slices.SortFunc and
// compareEdges in place of sortEdges: the reference the packed-key
// sort is pinned against.
func kruskalSortFunc(g *graph.Weighted) []Edge {
	var edges []Edge
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.HasEdge(u, v) {
				edges = append(edges, Edge{U: u, V: v, W: g.W[u][v]})
			}
		}
	}
	slices.SortFunc(edges, compareEdges)
	uf := newUnionFind(g.N)
	var forest []Edge
	for _, e := range edges {
		if uf.union(e.U, e.V) {
			forest = append(forest, e)
		}
	}
	return forest
}

// TestMSTVariantsRandomCorpus sweeps random seeds for weight equality
// and tree validity across all three variants.
func TestMSTVariantsRandomCorpus(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		n := 12 + int(seed%3)*10
		p := 0.2 + float64(seed%4)*0.2
		g := graph.GnpWeighted(n, p, 1+int64(seed%5)*20, false, seed)
		oracle := KruskalForest(g)
		wantW := Weight(oracle)
		boruvka, _ := runFind(t, g)
		skf, _, _ := runSketchFind(t, g, 32, "", seed)
		spf, _, _ := runSparseFind(t, g, 8, "", seed)
		for tag, forest := range map[string][]Edge{"boruvka": boruvka, "sketch": skf, "sparse": spf} {
			if Weight(forest) != wantW {
				t.Fatalf("seed %d n %d p %.1f: %s weight %d, want %d", seed, n, p, tag, Weight(forest), wantW)
			}
			if !sameForest(forest, oracle) {
				t.Fatalf("seed %d n %d p %.1f: %s disagrees with oracle edge-for-edge", seed, n, p, tag)
			}
			checkForestValid(t, g, forest, tag)
		}
	}
}

// TestSketchMSTConstantRounds is the round-count invariant gate: at
// every n in the quick sweep, on both backends, SketchFind completes
// in a single-digit number of rounds. Runs under -race in CI.
func TestSketchMSTConstantRounds(t *testing.T) {
	const wpp = 32
	const maxRounds = 9
	for _, n := range []int{16, 32, 64, 128} {
		for _, backend := range clique.Backends() {
			for _, seed := range []uint64{1, 2} {
				g := graph.GnpWeighted(n, 0.4, 1000, false, seed)
				_, _, res := runSketchFind(t, g, wpp, backend, seed)
				if res.Stats.Rounds > maxRounds {
					t.Errorf("(n=%d, seed=%d, backend=%s): SketchFind took %d rounds, single-digit bound is %d",
						n, seed, backend, res.Stats.Rounds, maxRounds)
				}
			}
		}
	}
}

// TestSparseMSTMessageSublinear is the message-count invariant gate:
// on dense inputs the total words SparseFind moves are o(m) — the
// words/m ratio decreases across the sweep and ends well below 1.
func TestSparseMSTMessageSublinear(t *testing.T) {
	const wpp = 8
	prev := map[string]float64{}
	for _, n := range []int{48, 96, 192} {
		for _, backend := range clique.Backends() {
			for _, seed := range []uint64{1} {
				g := graph.GnpWeighted(n, 0.6, 1000, false, seed)
				m := 0
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if g.HasEdge(u, v) {
							m++
						}
					}
				}
				_, _, res := runSparseFind(t, g, wpp, backend, seed)
				ratio := float64(res.Stats.WordsSent) / float64(m)
				if last, ok := prev[backend]; ok && ratio >= last {
					t.Errorf("(n=%d, seed=%d, backend=%s): words/m = %.3f did not decrease from %.3f",
						n, seed, backend, ratio, last)
				}
				prev[backend] = ratio
				if n == 192 && ratio > 0.75 {
					t.Errorf("(n=%d, seed=%d, backend=%s): words/m = %.3f, want < 0.75 (words=%d, m=%d)",
						n, seed, backend, ratio, res.Stats.WordsSent, m)
				}
			}
		}
	}
}

// TestMSTVariantsBackendEquivalence: identical stats (rounds, words)
// across goroutine and lockstep for both new variants.
func TestMSTVariantsBackendEquivalence(t *testing.T) {
	g := graph.GnpWeighted(24, 0.4, 60, false, 3)
	var refSk, refSp *clique.Result
	for i, backend := range clique.Backends() {
		_, _, sk := runSketchFind(t, g, 32, backend, 3)
		_, _, sp := runSparseFind(t, g, 8, backend, 3)
		if i == 0 {
			refSk, refSp = sk, sp
			continue
		}
		if sk.Stats != refSk.Stats {
			t.Errorf("%s: SketchFind stats %+v != reference %+v", backend, sk.Stats, refSk.Stats)
		}
		if sp.Stats != refSp.Stats {
			t.Errorf("%s: SparseFind stats %+v != reference %+v", backend, sp.Stats, refSp.Stats)
		}
	}
}

// TestSketchMSTSampleTelemetry: on graphs that keep several
// components past the seed phases (random-weighted cycles resist
// chain merging), the leaders' cut sketches should recover verified
// samples at a healthy rate.
func TestSketchMSTSampleTelemetry(t *testing.T) {
	okTotal, total := 0, 0
	for seed := uint64(0); seed < 10; seed++ {
		const n = 128
		g := graph.NewWeighted(n, false)
		r := rand.New(rand.NewPCG(seed, 13))
		for v := 0; v < n; v++ {
			g.SetEdge(v, (v+1)%n, r.Int64N(1000)+1)
		}
		_, stats, _ := runSketchFind(t, g, 32, "", seed)
		okTotal += stats.SampleOK
		total += stats.SampleTotal
	}
	if total == 0 {
		t.Fatal("no leader ever had a nonempty cut")
	}
	if rate := float64(okTotal) / float64(total); rate < 0.6 {
		t.Errorf("cut-sketch sample success %d/%d = %.2f, want >= 0.6", okTotal, total, rate)
	}
}
