// Shortest paths in the congested clique: the left column of Figure 1
// of the paper. One weighted random graph, four algorithms:
//
//   - BFS tree (unweighted, O(ecc) rounds)
//   - Bellman-Ford SSSP (weighted, O(hop depth) rounds)
//   - exact APSP via (min,+) matrix squaring to its fixed point
//     (O(n^{1/3} log D) rounds, D the hop depth of shortest paths)
//   - (1+eps)-approximate APSP via rounded squaring
//
// plus the diameter via APSP. All run on the same simulator and report
// model costs; exactness, the approximation guarantee and the diameter
// are checked against centralized oracles, and the program exits
// non-zero if any check fails, so it doubles as a smoke test.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/paths"
)

func main() {
	const n = 48
	const eps = 0.25
	w := graph.GnpWeighted(n, 0.15, 50, false, 7)
	uw := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if w.HasEdge(u, v) {
				uw.AddEdge(u, v)
			}
		}
	}
	truth := graph.FloydWarshall(w)

	// BFS from node 0.
	res, err := clique.Run(clique.Config{N: n}, func(nd *clique.Node) {
		paths.BFS(nd, uw.Row(nd.ID()), 0)
	})
	must(err)
	fmt.Printf("BFS tree:            %5d rounds\n", res.Stats.Rounds)

	// Weighted SSSP from node 0.
	ssspDist := make([]int64, n)
	res, err = clique.Run(clique.Config{N: n}, func(nd *clique.Node) {
		ssspDist[nd.ID()] = paths.SSSP(nd, w.W[nd.ID()], 0).Dist
	})
	must(err)
	check := 0
	for v := 0; v < n; v++ {
		if ssspDist[v] == truth[0][v] {
			check++
		}
	}
	fmt.Printf("SSSP (Bellman-Ford): %5d rounds, %d/%d distances exact\n",
		res.Stats.Rounds, check, n)
	failIf(check != n, "SSSP: %d of %d distances wrong", n-check, n)

	// Exact APSP by (min,+) squaring with the 3D schedule.
	apsp := make([][]int64, n)
	res, err = clique.Run(clique.Config{N: n, WordsPerPair: 8}, func(nd *clique.Node) {
		apsp[nd.ID()] = paths.APSP(nd, w.W[nd.ID()], matmul.Mul3D)
	})
	must(err)
	exact := true
	for i := range truth {
		for j := range truth[i] {
			exact = exact && apsp[i][j] == truth[i][j]
		}
	}
	fmt.Printf("APSP (min,+ squaring, 3D): %d rounds, exact=%v\n", res.Stats.Rounds, exact)
	failIf(!exact, "APSP: rows differ from Floyd-Warshall")

	// (1+eps)-approximate APSP.
	approx := make([][]int64, n)
	res, err = clique.Run(clique.Config{N: n, WordsPerPair: 8}, func(nd *clique.Node) {
		approx[nd.ID()] = paths.ApproxAPSP(nd, w.W[nd.ID()], eps, matmul.Mul3D)
	})
	must(err)
	worst := 1.0
	for i := range truth {
		for j := range truth[i] {
			d, a := truth[i][j], approx[i][j]
			switch {
			case d >= graph.Inf:
				failIf(a < graph.Inf, "APSP (1+eps): path (%d,%d) found where none exists", i, j)
			case d == 0:
				failIf(a != 0, "APSP (1+eps): entry (%d,%d) = %d, want 0", i, j, a)
			case a < d:
				failIf(true, "APSP (1+eps): entry (%d,%d) = %d below the distance %d", i, j, a, d)
			default:
				worst = max(worst, float64(a)/float64(d))
			}
		}
	}
	fmt.Printf("APSP (1+eps, eps=%.2f):    %d rounds, worst ratio %.4f (bound %.2f)\n",
		eps, res.Stats.Rounds, worst, 1+eps)
	failIf(worst > 1+eps, "APSP (1+eps): ratio %.4f exceeds %.2f", worst, 1+eps)

	// Diameter, against the largest BFS distance.
	wantDiam := int64(0)
	for v := 0; v < n; v++ {
		for _, d := range graph.BFSDistances(uw, v) {
			wantDiam = max(wantDiam, d)
		}
	}
	diam := make([]int64, n)
	res, err = clique.Run(clique.Config{N: n, WordsPerPair: 8}, func(nd *clique.Node) {
		diam[nd.ID()] = paths.Diameter(nd, matmul.AdjacencyRow(uw, nd.ID()), matmul.Mul3D)
	})
	must(err)
	fmt.Printf("Diameter:            %5d rounds, value %d\n", res.Stats.Rounds, diam[0])
	for v, d := range diam {
		failIf(d != wantDiam, "Diameter: node %d answers %d, want %d", v, d, wantDiam)
	}
	if failed {
		os.Exit(1)
	}
}

// failed records whether any check failed; main exits non-zero at the
// end so that every check still prints.
var failed bool

func failIf(bad bool, format string, args ...any) {
	if bad {
		failed = true
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
