package paths

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/trace"
)

func TestBFSOnKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		src  int
	}{
		{"path", graph.Path(7), 0},
		{"cycle", graph.Cycle(8), 3},
		{"complete", graph.Complete(6), 2},
		{"disconnected", func() *graph.Graph {
			g := graph.New(6)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(4, 5)
			return g
		}(), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := graph.BFSDistances(c.g, c.src)
			got := make([]BFSResult, c.g.N)
			_, err := clique.Run(clique.Config{N: c.g.N}, func(nd *clique.Node) {
				got[nd.ID()] = BFS(nd, c.g.Row(nd.ID()), c.src)
			})
			if err != nil {
				t.Fatal(err)
			}
			for v := range got {
				if got[v].Dist != want[v] {
					t.Errorf("dist(%d) = %d, want %d", v, got[v].Dist, want[v])
				}
				switch {
				case v == c.src:
					if got[v].Parent != -1 {
						t.Errorf("source parent = %d", got[v].Parent)
					}
				case want[v] >= graph.Inf:
					if got[v].Parent != -1 {
						t.Errorf("unreachable node %d has parent %d", v, got[v].Parent)
					}
				default:
					p := got[v].Parent
					if p < 0 || !c.g.HasEdge(v, p) || want[p]+1 != want[v] {
						t.Errorf("node %d parent %d invalid", v, p)
					}
				}
			}
		})
	}
}

func TestBFSRoundsTrackEccentricity(t *testing.T) {
	g := graph.Path(10)
	res, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
		BFS(nd, g.Row(nd.ID()), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// ecc(0) = 9 layers + termination detection.
	if res.Stats.Rounds < 9 || res.Stats.Rounds > 12 {
		t.Errorf("BFS on P10 used %d rounds, want about 10", res.Stats.Rounds)
	}
}

func TestSSSPUnweightedMatchesBFS(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.Gnp(12, 0.25, seed)
		w := graph.FromUnweighted(g)
		want := graph.BFSDistances(g, 0)
		got := make([]int64, g.N)
		_, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
			got[nd.ID()] = SSSP(nd, w.W[nd.ID()], 0).Dist
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Errorf("seed %d: dist(%d) = %d, want %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestSSSPWeighted(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.GnpWeighted(11, 0.3, 20, false, seed)
		want := graph.FloydWarshall(g)
		src := int(seed) % g.N
		got := make([]int64, g.N)
		_, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
			got[nd.ID()] = SSSP(nd, g.W[nd.ID()], src).Dist
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if got[v] != want[src][v] {
				t.Errorf("seed %d: dist(%d,%d) = %d, want %d", seed, src, v, got[v], want[src][v])
			}
		}
	}
}

func TestSSSPPathGraphTermination(t *testing.T) {
	// The path graph exercises the worst-case h+O(1) iteration count and
	// the simultaneous-exit logic (a bug here deadlocks or fails the
	// run).
	g := graph.FromUnweighted(graph.Path(9))
	_, err := clique.Run(clique.Config{N: 9}, func(nd *clique.Node) {
		r := SSSP(nd, g.W[nd.ID()], 0)
		if r.Dist != int64(nd.ID()) {
			nd.Fail("dist = %d, want %d", r.Dist, nd.ID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runRows runs one row program per node on backend and collects the
// rows.
func runRows(t *testing.T, backend string, n, wpp int, f func(nd *clique.Node) []int64) [][]int64 {
	t.Helper()
	out := make([][]int64, n)
	_, err := clique.Run(clique.Config{N: n, WordsPerPair: wpp, Backend: backend}, func(nd *clique.Node) {
		out[nd.ID()] = f(nd)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runAPSP(t *testing.T, g *graph.Weighted, mul matmul.MulFunc) [][]int64 {
	t.Helper()
	return runRows(t, "", g.N, 8, func(nd *clique.Node) []int64 { return APSP(nd, g.W[nd.ID()], mul) })
}

// countingMul wraps mul and counts, per node, the products it starts.
func countingMul(mul matmul.MulFunc, n int) (matmul.MulFunc, []int) {
	calls := make([]int, n)
	return func(nd clique.Endpoint, s matmul.Semiring, a, b []int64) []int64 {
		calls[nd.ID()]++
		return mul(nd, s, a, b)
	}, calls
}

// squarings returns the product count every node agrees on.
func squarings(t *testing.T, calls []int) int {
	t.Helper()
	for v, c := range calls {
		if c != calls[0] {
			t.Fatalf("node %d ran %d squarings, node 0 ran %d", v, c, calls[0])
		}
	}
	return calls[0]
}

func equalRows(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: entry (%d,%d) = %d, want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestAPSPUndirectedWeighted(t *testing.T) {
	g := graph.GnpWeighted(13, 0.3, 30, false, 9)
	equalRows(t, "Mul3D", runAPSP(t, g, matmul.Mul3D), graph.FloydWarshall(g))
}

func TestAPSPDirectedWeighted(t *testing.T) {
	g := graph.GnpWeighted(12, 0.3, 30, true, 10)
	equalRows(t, "MulNaive", runAPSP(t, g, matmul.MulNaive), graph.FloydWarshall(g))
}

// TestAPSPWeightedPathRunsEverySquaring pins the worst case: on a path
// the two end points are n-1 hops apart, so the matrix keeps changing
// until the last of the hopRounds(n) squarings, and the cap (not the
// vote) ends the loop.
func TestAPSPWeightedPathRunsEverySquaring(t *testing.T) {
	for _, n := range []int{9, 17, 30} {
		g := graph.NewWeighted(n, false)
		for v := 1; v < n; v++ {
			g.SetEdge(v-1, v, int64(1+(v*7)%11))
		}
		want := graph.FloydWarshall(g)
		for _, backend := range clique.Backends() {
			mul, calls := countingMul(matmul.Mul3D, n)
			got := runRows(t, backend, n, 8, func(nd *clique.Node) []int64 { return APSP(nd, g.W[nd.ID()], mul) })
			equalRows(t, fmt.Sprintf("n=%d %s", n, backend), got, want)
			if k := squarings(t, calls); k != hopRounds(n) {
				t.Errorf("n=%d %s: %d squarings on a path, want hopRounds = %d", n, backend, k, hopRounds(n))
			}
		}
	}
}

// TestAPSPStopsAtFixedPoint runs the E1 instances: dense random graphs
// whose shortest paths need only a few hops, so the fixed-point vote
// ends the loop before the hopRounds cap, with exact answers.
func TestAPSPStopsAtFixedPoint(t *testing.T) {
	for _, n := range []int{27, 64} {
		g := graph.GnpWeighted(n, 0.3, 40, false, uint64(n))
		want := graph.FloydWarshall(g)
		for _, backend := range clique.Backends() {
			mul, calls := countingMul(matmul.Mul3D, n)
			got := runRows(t, backend, n, 8, func(nd *clique.Node) []int64 { return APSP(nd, g.W[nd.ID()], mul) })
			equalRows(t, fmt.Sprintf("n=%d %s", n, backend), got, want)
			if k := squarings(t, calls); k >= hopRounds(n) {
				t.Errorf("n=%d %s: %d squarings, want fewer than hopRounds = %d", n, backend, k, hopRounds(n))
			}
		}
	}
}

// TestAPSPPhasesCoverTheRun checks the trace marks: one "paths/square"
// phase per squaring, one "paths/converged" phase per vote, and phase
// rounds summing to the run's rounds.
func TestAPSPPhasesCoverTheRun(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Weighted
	}{
		{"path", graph.FromUnweighted(graph.Path(12))},
		{"gnp", graph.GnpWeighted(27, 0.3, 40, false, 27)},
	} {
		n := c.g.N
		mul, calls := countingMul(matmul.MulNaive, n)
		col := trace.NewCollector(c.name, n, 8)
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: 8, Tracer: col}, func(nd *clique.Node) {
			APSP(nd, c.g.W[nd.ID()], mul)
		})
		if err != nil {
			t.Fatal(err)
		}
		k := squarings(t, calls)
		votes := k
		if k == hopRounds(n) {
			votes = k - 1 // no vote after the last allowed squaring
		}
		count := map[string]int{}
		sum := 0
		for _, p := range col.Finish().Summary().Phases {
			count[p.Name]++
			sum += p.Rounds
		}
		if count["paths/square"] != k || count["paths/converged"] != votes {
			t.Errorf("%s: phases %v, want %d squarings and %d votes", c.name, count, k, votes)
		}
		if sum != res.Stats.Rounds {
			t.Errorf("%s: phase rounds sum to %d, run has %d", c.name, sum, res.Stats.Rounds)
		}
	}
}

// reachable is the centralized oracle for transitive closure: BFS from
// every node over directed adjacency rows.
func reachable(adj [][]int64) [][]int64 {
	n := len(adj)
	out := make([][]int64, n)
	for s := range out {
		out[s] = make([]int64, n)
		out[s][s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v, a := range adj[u] {
				if a != 0 && out[s][v] == 0 {
					out[s][v] = 1
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

func adjacencyRows(g *graph.Graph) [][]int64 {
	rows := make([][]int64, g.N)
	for v := range rows {
		rows[v] = matmul.AdjacencyRow(g, v)
	}
	return rows
}

func TestTransitiveClosure(t *testing.T) {
	small := graph.New(10)
	small.AddEdge(0, 1)
	small.AddEdge(1, 2)
	small.AddEdge(3, 4)
	small.AddEdge(5, 6)
	small.AddEdge(6, 7)
	small.AddEdge(7, 8)
	directedPath := make([][]int64, 20)
	for v := range directedPath {
		directedPath[v] = make([]int64, len(directedPath))
		if v+1 < len(directedPath) {
			directedPath[v][v+1] = 1
		}
	}
	for _, c := range []struct {
		name string
		adj  [][]int64
		// worst marks inputs whose closure needs every squaring.
		worst bool
	}{
		{"small", adjacencyRows(small), false},
		{"directed-path", directedPath, true},
		{"gnp", adjacencyRows(graph.Gnp(40, 0.1, 3)), false},
	} {
		n := len(c.adj)
		want := reachable(c.adj)
		for _, backend := range clique.Backends() {
			mul, calls := countingMul(matmul.Mul3D, n)
			got := runRows(t, backend, n, 4, func(nd *clique.Node) []int64 {
				return TransitiveClosure(nd, c.adj[nd.ID()], mul)
			})
			equalRows(t, c.name+" "+backend, got, want)
			if k := squarings(t, calls); c.worst && k != hopRounds(n) {
				t.Errorf("%s %s: %d squarings, want hopRounds = %d", c.name, backend, k, hopRounds(n))
			}
		}
	}
}

func TestApproxAPSPGuarantee(t *testing.T) {
	for _, eps := range []float64{0.1, 0.5, 1.0} {
		g := graph.GnpWeighted(12, 0.35, 100, false, 12)
		want := graph.FloydWarshall(g)
		got := make([][]int64, g.N)
		_, err := clique.Run(clique.Config{N: g.N, WordsPerPair: 8}, func(nd *clique.Node) {
			got[nd.ID()] = ApproxAPSP(nd, g.W[nd.ID()], eps, matmul.MulNaive)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				d, a := want[i][j], got[i][j]
				if d >= graph.Inf {
					if a < graph.Inf {
						t.Fatalf("eps=%v: approx found path %d->%d where none exists", eps, i, j)
					}
					continue
				}
				if a < d {
					t.Fatalf("eps=%v: approx %d below true distance %d for (%d,%d)", eps, a, d, i, j)
				}
				if float64(a) > (1+eps)*float64(d)+1e-9 {
					t.Fatalf("eps=%v: approx %d exceeds (1+eps)*%d for (%d,%d)", eps, a, d, i, j)
				}
			}
		}
	}
}

// diameter is the centralized oracle: the largest BFS distance over
// all sources, graph.Inf if some pair is disconnected.
func diameter(g *graph.Graph) int64 {
	d := int64(0)
	for s := 0; s < g.N; s++ {
		for _, x := range graph.BFSDistances(g, s) {
			d = max(d, x)
		}
	}
	return d
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"path", graph.Path(8), 7},
		{"long-path", graph.Path(21), 20},
		{"cycle", graph.Cycle(8), 4},
		{"complete", graph.Complete(7), 1},
		{"gnp", graph.Gnp(30, 0.15, 5), -1},
		{"disconnected", func() *graph.Graph {
			g := graph.New(5)
			g.AddEdge(0, 1)
			return g
		}(), graph.Inf},
	}
	for _, c := range cases {
		want := diameter(c.g)
		if c.want >= 0 && want != c.want {
			t.Fatalf("%s: oracle diameter %d, want %d", c.name, want, c.want)
		}
		for _, backend := range clique.Backends() {
			got := runRows(t, backend, c.g.N, 4, func(nd *clique.Node) []int64 {
				return []int64{Diameter(nd, matmul.AdjacencyRow(c.g, nd.ID()), matmul.MulNaive)}
			})
			for v, d := range got {
				if d[0] != want {
					t.Errorf("%s %s: node %d diameter = %d, want %d", c.name, backend, v, d[0], want)
				}
			}
		}
	}
}

func TestEncodeDecodeDist(t *testing.T) {
	f := func(x uint32) bool {
		d := int64(x)
		return decodeDist(encodeDist(d)) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if decodeDist(encodeDist(graph.Inf)) != graph.Inf {
		t.Error("Inf does not round-trip")
	}
	if decodeDist(encodeDist(graph.Inf+5)) != graph.Inf {
		t.Error("beyond-Inf does not clamp")
	}
}

func TestRoundUpPow(t *testing.T) {
	if got := roundUpPow(0, 0.1); got != 0 {
		t.Errorf("roundUpPow(0) = %d", got)
	}
	if got := roundUpPow(graph.Inf, 0.1); got != graph.Inf {
		t.Errorf("roundUpPow(Inf) = %d", got)
	}
	for _, d := range []int64{1, 2, 3, 10, 99, 1000} {
		got := roundUpPow(d, 0.25)
		if got < d {
			t.Errorf("roundUpPow(%d) = %d below input", d, got)
		}
		if float64(got) > 1.25*float64(d)+1 {
			t.Errorf("roundUpPow(%d) = %d too large", d, got)
		}
	}
}

func TestHopRounds(t *testing.T) {
	cases := []struct{ n, want int }{{2, 1}, {3, 1}, {4, 2}, {5, 2}, {9, 3}, {17, 4}, {33, 5}}
	for _, c := range cases {
		if got := hopRounds(c.n); got != c.want {
			t.Errorf("hopRounds(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
