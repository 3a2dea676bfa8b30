package graph

import (
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Has(i) {
			t.Errorf("fresh bitset has %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Errorf("Set(%d) not visible", i)
		}
	}
	if b.Count() != 8 {
		t.Errorf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 7 {
		t.Errorf("Clear(64) failed: count %d", b.Count())
	}
	var got []int
	b.Each(func(i int) { got = append(got, i) })
	want := []int{0, 1, 63, 65, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", got, want)
		}
	}
}

func TestBitsetIntersects(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	a.Set(70)
	b.Set(71)
	if a.IntersectsWith(b) {
		t.Error("disjoint sets intersect")
	}
	b.Set(70)
	if !a.IntersectsWith(b) {
		t.Error("overlapping sets do not intersect")
	}
}

func TestGraphBasics(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate is a no-op
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge 0-1 missing")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Error("phantom edge")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(4) != 0 {
		t.Errorf("degrees wrong: %d %d", g.Degree(1), g.Degree(4))
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.NumEdges() != 1 {
		t.Error("RemoveEdge failed")
	}
}

func TestGraphCloneIndependent(t *testing.T) {
	g := Cycle(5)
	h := g.Clone()
	h.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("clone shares storage with original")
	}
	if !g.Equal(Cycle(5)) {
		t.Error("original mutated")
	}
}

func TestComplement(t *testing.T) {
	g := Gnp(9, 0.5, 7)
	c := g.Complement()
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.HasEdge(u, v) == c.HasEdge(u, v) {
				t.Fatalf("complement wrong at %d-%d", u, v)
			}
		}
	}
	if !c.Complement().Equal(g) {
		t.Error("double complement differs")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	h := g.InducedSubgraph([]int{0, 1, 2})
	if h.N != 3 || !h.HasEdge(0, 1) || !h.HasEdge(1, 2) || h.HasEdge(0, 2) {
		t.Errorf("induced subgraph wrong: %v", h)
	}
}

func TestGenerators(t *testing.T) {
	if got := Complete(6).NumEdges(); got != 15 {
		t.Errorf("K6 edges = %d", got)
	}
	if got := Cycle(7).NumEdges(); got != 7 {
		t.Errorf("C7 edges = %d", got)
	}
	if got := Path(7).NumEdges(); got != 6 {
		t.Errorf("P7 edges = %d", got)
	}
	if got := CompleteBipartite(3, 4).NumEdges(); got != 12 {
		t.Errorf("K34 edges = %d", got)
	}
	// Determinism.
	if !Gnp(20, 0.4, 5).Equal(Gnp(20, 0.4, 5)) {
		t.Error("Gnp not deterministic for fixed seed")
	}
	if Gnp(20, 0.4, 5).Equal(Gnp(20, 0.4, 6)) {
		t.Error("different seeds gave identical graphs (suspicious)")
	}
}

func TestPlantedInstances(t *testing.T) {
	g, set := PlantedIndependentSet(14, 4, 0.6, 3)
	if !IsIndependentSet(g, set) {
		t.Error("planted IS is not independent")
	}
	g2, ds := PlantedDominatingSet(14, 3, 0.15, 4)
	if !IsDominatingSet(g2, ds) {
		t.Error("planted DS does not dominate")
	}
	if g, ds := PlantedDominatingSet(2, 3, 0.15, 4); len(ds) != 2 || !IsDominatingSet(g, ds) {
		t.Errorf("planted DS at k > n: %v", ds)
	}
	g3, vc := PlantedVertexCover(14, 4, 0.5, 5)
	if !IsVertexCover(g3, vc) {
		t.Error("planted VC does not cover")
	}
	g4, colors := PlantedColoring(14, 3, 0.7, 6)
	if !IsProperColoring(g4, colors, 3) {
		t.Error("planted colouring improper")
	}
	g5, perm := PlantedHamiltonianPath(10, 0.1, 7)
	for i := 0; i+1 < len(perm); i++ {
		if !g5.HasEdge(perm[i], perm[i+1]) {
			t.Fatal("planted Hamiltonian path edge missing")
		}
	}
	if !HasHamiltonianPath(g5) {
		t.Error("oracle misses planted Hamiltonian path")
	}
	g6 := PlantedTriangleFree(16, 0.6, 8)
	if HasTriangle(g6) {
		t.Error("bipartite construction contains a triangle")
	}
}

func TestOraclesOnKnownGraphs(t *testing.T) {
	c5 := Cycle(5)
	if MaxIndependentSetSize(c5) != 2 {
		t.Errorf("alpha(C5) = %d, want 2", MaxIndependentSetSize(c5))
	}
	if MinVertexCoverSize(c5) != 3 {
		t.Errorf("tau(C5) = %d, want 3", MinVertexCoverSize(c5))
	}
	if IsKColorable(c5, 2) {
		t.Error("C5 reported 2-colourable")
	}
	if !IsKColorable(c5, 3) {
		t.Error("C5 reported not 3-colourable")
	}
	if !HasCycleOfLength(c5, 5) || HasCycleOfLength(c5, 3) || HasCycleOfLength(c5, 4) {
		t.Error("cycle detection wrong on C5")
	}
	if HasTriangle(c5) {
		t.Error("C5 has no triangle")
	}
	k4 := Complete(4)
	if !HasCliqueOfSize(k4, 4) || HasCliqueOfSize(k4, 5) {
		t.Error("clique oracle wrong on K4")
	}
	if !HasDominatingSetOfSize(k4, 1) {
		t.Error("K4 dominated by any single vertex")
	}
	p4 := Path(4)
	if HasDominatingSetOfSize(p4, 1) {
		t.Error("P4 cannot be dominated by one vertex")
	}
	if !HasDominatingSetOfSize(p4, 2) {
		t.Error("P4 dominated by two vertices")
	}
	// "Of size k" means at most k, also when k exceeds n.
	for n := 1; n <= 3; n++ {
		empty := New(n)
		if ds := FindDominatingSet(empty, n+1); len(ds) != n || !IsDominatingSet(empty, ds) {
			t.Errorf("edgeless n=%d, k=%d: FindDominatingSet returned %v", n, n+1, ds)
		}
		if HasDominatingSetOfSize(empty, n-1) {
			t.Errorf("edgeless n=%d dominated by %d vertices", n, n-1)
		}
	}
	if !HasHamiltonianPath(p4) {
		t.Error("P4 is a Hamiltonian path")
	}
	star := CompleteBipartite(1, 5)
	if HasHamiltonianPath(star) {
		t.Error("K_{1,5} has no Hamiltonian path")
	}
}

func TestVertexCoverDuality(t *testing.T) {
	// MinVertexCoverSize computes tau via Gallai from the
	// branch-and-bound alpha; cross-validate against the independent
	// 2^k cover-branching solver: a cover of size tau exists, none of
	// size tau-1 does.
	for seed := uint64(0); seed < 6; seed++ {
		g := Gnp(10, 0.4, seed)
		tau := MinVertexCoverSize(g)
		if FindVertexCover(g, tau) == nil {
			t.Errorf("seed %d: no cover of claimed optimum %d", seed, tau)
		}
		if tau > 0 && FindVertexCover(g, tau-1) != nil {
			t.Errorf("seed %d: cover below claimed optimum %d", seed, tau)
		}
	}
}

func TestFindVertexCoverIsCover(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := Gnp(12, 0.3, seed)
		k := MinVertexCoverSize(g)
		cover := FindVertexCover(g, k)
		if cover == nil {
			t.Fatalf("seed %d: no cover of optimal size %d", seed, k)
		}
		if !IsVertexCover(g, cover) {
			t.Errorf("seed %d: returned set is not a cover", seed)
		}
		if len(cover) > k {
			t.Errorf("seed %d: cover size %d exceeds budget %d", seed, len(cover), k)
		}
		if k > 0 && FindVertexCover(g, k-1) != nil {
			t.Errorf("seed %d: found cover below optimum", seed)
		}
	}
}

func TestWeightedGraph(t *testing.T) {
	g := NewWeighted(4, false)
	g.SetEdge(0, 1, 5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected weighted edge not symmetric")
	}
	d := NewWeighted(4, true)
	d.SetEdge(0, 1, 5)
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Error("directed weighted edge symmetry wrong")
	}
	if d.W[2][2] != 0 {
		t.Error("diagonal not zero")
	}
	c := g.Clone()
	c.SetEdge(2, 3, 7)
	if g.HasEdge(2, 3) {
		t.Error("weighted clone shares storage")
	}
}

func TestFloydWarshallAgainstBFS(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := Gnp(12, 0.25, seed)
		w := FromUnweighted(g)
		d := FloydWarshall(w)
		for src := 0; src < g.N; src++ {
			bfs := BFSDistances(g, src)
			for v := 0; v < g.N; v++ {
				if d[src][v] != bfs[v] {
					t.Fatalf("seed %d: dist(%d,%d) FW=%d BFS=%d", seed, src, v, d[src][v], bfs[v])
				}
			}
		}
	}
}

func TestFloydWarshallWeightedTriangleInequality(t *testing.T) {
	g := GnpWeighted(10, 0.4, 50, false, 11)
	d := FloydWarshall(g)
	for i := 0; i < g.N; i++ {
		if d[i][i] != 0 {
			t.Fatalf("d(%d,%d) = %d", i, i, d[i][i])
		}
		for j := 0; j < g.N; j++ {
			for k := 0; k < g.N; k++ {
				if d[i][j] < Inf && d[j][k] < Inf && d[i][k] > d[i][j]+d[j][k] {
					t.Fatalf("triangle inequality violated at %d,%d,%d", i, j, k)
				}
			}
		}
	}
}

func TestTransitiveClosureOracle(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	tc := TransitiveClosureOracle(g)
	if !tc[0][2] || !tc[2][0] || tc[0][4] || !tc[4][5] || !tc[3][3] {
		t.Errorf("closure wrong: %v", tc)
	}
}

func TestPrivateAssignmentPartition(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 9, 16, 17} {
		p := PrivateAssignment{N: n}
		counts := make([]int, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				o := p.Owner(u, v)
				if o2 := p.Owner(v, u); o2 != o {
					t.Fatalf("n=%d: Owner not symmetric for {%d,%d}: %d vs %d", n, u, v, o, o2)
				}
				if o != u && o != v {
					t.Fatalf("n=%d: owner %d of {%d,%d} is not an endpoint", n, o, u, v)
				}
				counts[o]++
			}
		}
		total := 0
		minOwned := n
		for v, c := range counts {
			total += c
			if c < minOwned {
				minOwned = c
			}
			var viaIter int
			p.OwnedPairs(v, func(u int) { viaIter++ })
			if viaIter != c {
				t.Fatalf("n=%d: OwnedPairs(%d) visited %d, want %d", n, v, viaIter, c)
			}
		}
		if total != n*(n-1)/2 {
			t.Fatalf("n=%d: ownership not a partition: %d pairs owned", n, total)
		}
		if minOwned < (n-1)/2 {
			t.Fatalf("n=%d: node owns only %d pairs, below floor((n-1)/2)=%d", n, minOwned, (n-1)/2)
		}
	}
}

func TestOracleConsistencyQuick(t *testing.T) {
	// Property: on random small graphs, a found IS of size k is
	// independent, and complement cliques match.
	f := func(seed uint64) bool {
		g := Gnp(9, 0.5, seed)
		comp := g.Complement()
		for k := 1; k <= 4; k++ {
			if HasIndependentSetOfSize(g, k) != HasCliqueOfSize(comp, k) {
				return false
			}
			if s := FindIndependentSet(g, k); s != nil && !IsIndependentSet(g, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHamiltonianPathMatchesBacktracking(t *testing.T) {
	// Cross-check Held-Karp DP against cycle-based reasoning on cycles
	// and paths.
	for n := 3; n <= 9; n++ {
		if !HasHamiltonianPath(Cycle(n)) {
			t.Errorf("C%d has a Hamiltonian path", n)
		}
		if !HasHamiltonianPath(Path(n)) {
			t.Errorf("P%d has a Hamiltonian path", n)
		}
	}
	// Disconnected graph has none.
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if HasHamiltonianPath(g) {
		t.Error("disconnected graph reported Hamiltonian")
	}
}
