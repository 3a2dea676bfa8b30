package graph

import (
	"fmt"
	"math/rand/v2"
)

// rng returns a deterministic generator for the given seed; all generators
// in this package are reproducible across runs and platforms.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Gnp returns an Erdős–Rényi graph G(n, p) drawn with the given seed.
func Gnp(n int, p float64, seed uint64) *Graph {
	r := rng(seed)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// GnpWeighted returns a weighted G(n, p) with integer weights drawn
// uniformly from [1, maxW].
func GnpWeighted(n int, p float64, maxW int64, directed bool, seed uint64) *Weighted {
	r := rng(seed)
	g := NewWeighted(n, directed)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			if r.Float64() < p {
				g.SetEdge(u, v, 1+r.Int64N(maxW))
			}
		}
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Cycle returns the n-cycle 0-1-...-(n-1)-0. n must be at least 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle of order %d", n))
	}
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// Path returns the path 0-1-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// CompleteBipartite returns K_{a,b} with sides {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// PlantedIndependentSet returns a graph with a planted independent set of
// size k (vertices 0..k-1) and G(n, p) noise elsewhere, plus the planted
// set. The planted set is independent by construction; whether it is the
// unique or maximum one depends on the noise, so tests use brute-force
// oracles rather than assuming so.
func PlantedIndependentSet(n, k int, p float64, seed uint64) (*Graph, []int) {
	r := rng(seed)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if v < k {
				continue // both in planted set
			}
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	set := make([]int, k)
	for i := range set {
		set[i] = i
	}
	return g, set
}

// PlantedDominatingSet returns a graph in which vertices 0..k-1 form a
// dominating set: every other vertex gets at least one edge into the
// planted set, plus G(n, p) noise. When k > n it plants all n vertices.
func PlantedDominatingSet(n, k int, p float64, seed uint64) (*Graph, []int) {
	if k < 1 || n < 1 {
		panic(fmt.Sprintf("graph: planted dominating set k=%d n=%d", k, n))
	}
	k = min(k, n)
	r := rng(seed)
	g := Gnp(n, p, seed+1)
	for v := k; v < n; v++ {
		dominated := false
		for d := 0; d < k; d++ {
			if g.HasEdge(v, d) {
				dominated = true
				break
			}
		}
		if !dominated {
			g.AddEdge(v, r.IntN(k))
		}
	}
	set := make([]int, k)
	for i := range set {
		set[i] = i
	}
	return g, set
}

// PlantedVertexCover returns a graph whose every edge is incident to the
// planted cover 0..k-1 (so a vertex cover of size at most k exists), with
// edge density p between cover and non-cover vertices and inside the
// cover.
func PlantedVertexCover(n, k int, p float64, seed uint64) (*Graph, []int) {
	r := rng(seed)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u >= k && v >= k {
				continue // both outside the cover: must stay a non-edge
			}
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	cover := make([]int, k)
	for i := range cover {
		cover[i] = i
	}
	return g, cover
}

// PlantedColoring returns a k-colourable graph: vertices are assigned
// random colour classes and only cross-class edges are drawn with
// probability p. The returned colouring witnesses k-colourability.
func PlantedColoring(n, k int, p float64, seed uint64) (*Graph, []int) {
	r := rng(seed)
	colors := make([]int, n)
	for v := range colors {
		colors[v] = r.IntN(k)
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if colors[u] != colors[v] && r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g, colors
}

// PlantedHamiltonianPath returns a graph containing the Hamiltonian path
// given by a random permutation, plus G(n, p) noise, and the permutation.
func PlantedHamiltonianPath(n int, p float64, seed uint64) (*Graph, []int) {
	r := rng(seed)
	perm := r.Perm(n)
	g := Gnp(n, p, seed+1)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	return g, perm
}

// PlantedTriangleFree returns a triangle-free graph: a random bipartite
// graph with parts decided by seed.
func PlantedTriangleFree(n int, p float64, seed uint64) *Graph {
	r := rng(seed)
	side := make([]bool, n)
	for v := range side {
		side[v] = r.IntN(2) == 0
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if side[u] != side[v] && r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}
