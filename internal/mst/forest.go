package mst

import (
	"slices"

	"repro/internal/clique"
	"repro/internal/graph"
)

// unionFind is the shared merge structure of the MST family. Roots
// are always the minimum vertex id of their component, matching the
// "component label = smallest member" convention every variant (and
// the coordinator of SparseFind) relies on.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// union merges the components of a and b, keeping the smaller root as
// the label; reports whether a merge happened.
func (u unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u[rb] = ra
	return true
}

// boruvkaMerge is the state of the replicated Borůvka merge every
// node of Find and of SketchFind's seed phases runs on the same
// announcements, so all nodes reach the same forest and labels. It is
// immutable once built: phase returns the next state and leaves its
// receiver alone, which lets clique.Replicated hand one state to every
// node of a lockstep run. Labels are minimum member ids, kept by
// unionFind's min-id roots.
type boruvkaMerge struct {
	// comp[v] is the label of v's component.
	comp   []int
	uf     unionFind
	forest []Edge
}

func newBoruvkaMerge(n int) *boruvkaMerge {
	// A forest has at most n−1 edges, so a phase never grows forest.
	m := &boruvkaMerge{comp: make([]int, n), uf: newUnionFind(n), forest: make([]Edge, 0, max(n-1, 0))}
	for v := range m.comp {
		m.comp[v] = v
	}
	return m
}

// phase returns the state after one Borůvka phase on ann, which holds
// n pair words (node v's announced edge, noEdge for none) followed by
// the n matching weight words. Each announced edge is a candidate for
// its announcer's component; the phase applies, in ascending label,
// every component's best candidate under the package order that still
// joins two components, then relabels once, so it costs O(n α(n))
// however many edges it merges, plus one O(n) copy of the state.
func (m *boruvkaMerge) phase(ann []uint64) *boruvkaMerge {
	n := len(m.comp)
	best := make([]Edge, n)
	for c := range best {
		best[c] = Edge{U: -1}
	}
	for v := 0; v < n; v++ {
		if ann[v] == noEdge {
			continue
		}
		u, w := clique.UnpairWord(ann[v], n)
		e := Edge{U: u, V: w, W: int64(ann[n+v])}
		if c := m.comp[u]; better(e, best[c]) {
			best[c] = e
		}
	}
	next := &boruvkaMerge{comp: make([]int, n), uf: slices.Clone(m.uf),
		forest: append(make([]Edge, 0, cap(m.forest)), m.forest...)}
	for _, e := range best {
		if e.U >= 0 && next.uf.union(e.U, e.V) {
			next.forest = append(next.forest, normalize(e))
		}
	}
	for v := range next.comp {
		next.comp[v] = next.uf.find(v)
	}
	return next
}

// KruskalForest computes the minimum spanning forest centrally under
// the same (weight, u, v) total order as the distributed variants.
// Because the order is total, the forest is unique, so Find,
// SketchFind and SparseFind must agree with it edge for edge — the
// oracle the equivalence tests pin against.
func KruskalForest(g *graph.Weighted) []Edge {
	var edges []Edge
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.HasEdge(u, v) {
				edges = append(edges, Edge{U: u, V: v, W: g.W[u][v]})
			}
		}
	}
	sortEdges(edges, g.N, nil)
	uf := newUnionFind(g.N)
	var forest []Edge
	for _, e := range edges {
		if uf.union(e.U, e.V) {
			forest = append(forest, e)
		}
	}
	return forest
}
